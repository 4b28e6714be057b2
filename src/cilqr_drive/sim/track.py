"""Arc-length track geometry with piecewise-linear curvature.

A track is a chain of segments, each with linearly varying curvature
(straights and circular arcs are the constant special case; clothoids
the varying one), so curvature is continuous and heading is an exact
piecewise quadratic in arc length.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# 3-point Gauss-Legendre nodes mapped to [0, 1], for the short per-gap
# integrals of lane-map sampling
_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)
_GL3_NODES = 0.5 * (_GL3_NODES + 1.0)
_GL3_WEIGHTS = 0.5 * _GL3_WEIGHTS


@dataclass
class TrackGeometry:
    """Piecewise-linear curvature profile kappa(s) over [0, length].

    segments is a sequence of (length, kappa_start, kappa_end); adjacent
    segments must agree at their shared breakpoint (C0 curvature), and a
    closed track must also match end to start.
    """

    segments: Sequence[tuple[float, float, float]]
    closed: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if len(self.segments) == 0:
            raise ValueError("track needs at least one segment")
        breaks = [0.0]
        kappas = []
        for i, (length, k0, k1) in enumerate(self.segments):
            if length <= 0.0:
                raise ValueError(f"segment {i} must have positive length")
            if i > 0 and abs(k0 - self.segments[i - 1][2]) > 1e-12:
                raise ValueError(
                    f"curvature jumps at segment boundary {i}: "
                    f"{self.segments[i - 1][2]} -> {k0}")
            breaks.append(breaks[-1] + length)
            kappas.append((k0, k1))
        if self.closed and abs(self.segments[-1][2]
                               - self.segments[0][1]) > 1e-12:
            raise ValueError("closed track must have matching end curvature")
        # cumulative heading at breakpoints: trapezoid is exact for a
        # linear curvature profile
        psi = [0.0]
        for (length, k0, k1) in self.segments:
            psi.append(psi[-1] + 0.5 * (k0 + k1) * length)
        self._breaks, self._kappas = breaks, kappas
        # the vectorized lookups' array forms, built once
        self._breaks_np, self._kappas_np, self._psi = map(
            np.array, (breaks, kappas, psi))
        self.length = breaks[-1]
        self.max_kappa = max(max(abs(k0), abs(k1)) for k0, k1 in kappas)
        self._last = 0      # segment of the last _locate

    # -- curvature and heading ------------------------------------------

    def _locate(self, s: float) -> tuple[int, float]:
        if self.closed:
            s = s % self.length
        else:
            s = min(max(s, 0.0), self.length)
        # the last segment, when it holds s, is the one bisection gives
        i, breaks = self._last, self._breaks
        if not breaks[i] <= s < breaks[i + 1]:
            i = min(bisect.bisect_right(breaks, s), len(breaks) - 1) - 1
            self._last = i
        return i, s - breaks[i]

    def curvature(self, s: float) -> float:
        i, ds = self._locate(s)
        k0, k1 = self._kappas[i]
        length = self._breaks[i + 1] - self._breaks[i]
        return k0 + (k1 - k0) * (ds / length)

    def _locate_many(self, s: np.ndarray):
        """Vectorized _locate: index, offset, length and end curvatures."""
        sm = s % self.length if self.closed else np.clip(s, 0.0, self.length)
        b, k = self._breaks_np, self._kappas_np
        idx = np.clip(np.searchsorted(b, sm, side="right") - 1,
                      0, len(self.segments) - 1)
        return idx, sm - b[idx], b[idx + 1] - b[idx], k[idx, 0], k[idx, 1]

    def curvature_many(self, s: np.ndarray) -> np.ndarray:
        """Vectorized curvature, equal to curvature() at each entry."""
        _, ds, length, k0, k1 = self._locate_many(np.asarray(s, dtype=float))
        return k0 + (k1 - k0) * (ds / length)

    def heading_many(self, s: np.ndarray) -> np.ndarray:
        """Centerline tangent angles at s, accumulated from s = 0."""
        s = np.asarray(s, dtype=float)
        turns = np.floor(s / self.length) if self.closed else 0.0
        idx, ds, length, k0, k1 = self._locate_many(s)
        slope = (k1 - k0) / length
        return (self._psi[idx] + k0 * ds + 0.5 * slope * ds * ds
                + turns * self._psi[-1])

    # -- forward centerline samples in the ego frame ---------------------

    def centerline_ahead(self, s: float, delta: float, theta: float,
                         distances: np.ndarray) -> np.ndarray:
        """Centerline points ahead of the ego, in the ego body frame.

        The ego sits a lateral offset delta left of the centerline with
        heading error theta.  Points are taken at the given arc
        distances and integrated relative to the ego's foot point, so no
        global position is needed.  Returns an (n, 2) array of (x, y).
        """
        distances = np.asarray(distances, dtype=float)
        # integrate cos/sin of the tangent angle relative to the foot
        # point's over each gap with 3-point Gauss-Legendre (error well
        # under 1e-9 per meter), all gaps and the foot point in one call,
        # then accumulate the gaps in order
        prev = np.concatenate(([0.0], distances[:-1]))
        h = distances - prev
        pts = s + prev[:, None] + h[:, None] * _GL3_NODES
        psi = self.heading_many(np.concatenate(([s], pts.ravel())))
        phi = psi[1:].reshape(pts.shape) - psi[0]
        h = np.where(h > 0.0, h, 0.0)
        xs = np.cumsum(h * (np.cos(phi) @ _GL3_WEIGHTS))
        ys = np.cumsum(h * (np.sin(phi) @ _GL3_WEIGHTS))
        # shift to the ego position and rotate into the body frame
        dy = ys - delta
        ct, st = math.cos(theta), math.sin(theta)
        return np.column_stack([xs * ct + dy * st, -xs * st + dy * ct])


# ---------------------------------------------------------------------------
# Presets.  Both circuits are built from clothoid-arc-clothoid turns whose
# lengths solve the exact heading budget, so the stated totals are exact
# and closure follows from the turn symmetry.
# ---------------------------------------------------------------------------

def _turn(k_max: float, clothoid_len: float,
          turn_angle: float) -> list[tuple[float, float, float]]:
    # heading through the turn: 2 * (k_max * Lc / 2) + k_max * La = angle
    arc_len = (turn_angle - k_max * clothoid_len) / k_max
    if arc_len <= 0.0:
        raise ValueError("turn angle too small for the clothoid ramps")
    return [(clothoid_len, 0.0, k_max),
            (arc_len, k_max, k_max),
            (clothoid_len, k_max, 0.0)]


def _track_a() -> TrackGeometry:
    # stadium: two straights joined by opposing 180-degree turns
    k_max, lc = 0.03, 30.0
    total = 2843.0
    turn = _turn(k_max, lc, math.pi)
    turn_len = sum(seg[0] for seg in turn)
    straight = (total - 2.0 * turn_len) / 2.0
    segs = ([(straight, 0.0, 0.0)] + turn
            + [(straight, 0.0, 0.0)] + turn)
    return TrackGeometry(segs, closed=True, name="trackA")


def _track_b() -> TrackGeometry:
    # rounded rectangle: four quarter turns, long and short straights
    k_max, lc = 0.05, 12.0
    total = 3919.0
    turn = _turn(k_max, lc, math.pi / 2.0)
    turn_len = sum(seg[0] for seg in turn)
    long_side = 1200.0
    short_side = (total - 4.0 * turn_len - 2.0 * long_side) / 2.0
    segs = []
    for side in (long_side, short_side, long_side, short_side):
        segs.append((side, 0.0, 0.0))
        segs.extend(turn)
    return TrackGeometry(segs, closed=True, name="trackB")


def _straight() -> TrackGeometry:
    return TrackGeometry([(5000.0, 0.0, 0.0)], closed=False, name="straight")


def _circle100() -> TrackGeometry:
    r = 100.0
    return TrackGeometry([(2.0 * math.pi * r, 1.0 / r, 1.0 / r)],
                         closed=True, name="circle100")


# preset name -> builder: trackA (2843 m stadium, max curvature 0.03),
# trackB (3919 m rounded rectangle, max curvature 0.05), straight (5 km
# open line), circle100 (radius 100 m loop)
TRACKS = {"trackA": _track_a, "trackB": _track_b, "straight": _straight,
          "circle100": _circle100}


def build_track(preset: str) -> TrackGeometry:
    """Build the preset circuit of that name (a key of TRACKS)."""
    if preset not in TRACKS:
        raise ValueError(f"unknown track preset: {preset!r}")
    return TRACKS[preset]()
