"""Lane-map fitting and curvature-preview steering correction.

A bird's-eye-view lane map (forward x, lateral-left y, in the ego
frame) is averaged over a short window of frames, fitted with a
quadratic, and differentiated for curvature.  Comparing the desired
steer angle at the vehicle with the one at a look-ahead point gives a
small anticipatory correction added on top of the optimizer's steering
command.  Curvature is signed positive for left turns.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fields import check_fields, ranged
from .lateral import CLIP_MARGIN, STEER_LIMIT_RAD

SENSING_RANGE_M = 30.0
BIN_WIDTH_M = 0.5
FIT_WINDOW_M = 15.0      # far-field points degrade the quadratic fit
MIN_FIT_POINTS = 6
MIN_FIT_SPAN_M = 5.0
MAX_FIT_RMS_M = 0.3
STEER_CMD_MAX = 1.0 - 2.0 * CLIP_MARGIN   # the steering clip's margin


class ExtrapolationError(ValueError):
    """Raised when a polynomial is queried outside its fitted range."""


@dataclass
class LaneMap:
    """Lane-line samples ahead of the ego vehicle.

    points has shape (n, 2) with columns (x forward, y lateral-left),
    x restricted to the sensing range.
    """

    points: np.ndarray
    timestamp: float

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.size == 0:
            self.points = self.points.reshape(0, 2)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must have shape (n, 2)")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("lane points must be finite")
        x = self.points[:, 0]
        if x.size and (x.min() < 0.0 or x.max() > SENSING_RANGE_M):
            raise ValueError(f"x must lie within [0, {SENSING_RANGE_M}] m")
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")


@dataclass
class LanePolynomial:
    """Quadratic lane model y = a*x^2 + b*x + c over valid_range."""

    a: float
    b: float
    c: float
    valid_range: tuple[float, float]
    rms: float = 0.0

    def __post_init__(self) -> None:
        for v in (self.a, self.b, self.c, self.rms):
            if not math.isfinite(v):
                raise ValueError("coefficients must be finite")
        lo, hi = self.valid_range
        if not lo < hi:
            raise ValueError("valid_range must be a nonempty interval")


@dataclass
class PreviewCorrection:
    """Curvatures and steer angles at the ego and look-ahead points.

    delta_shift is the correction added to the current steer angle;
    delta_p is the resulting predicted angle.
    """

    kappa_0: float
    kappa_1: float
    delta_0: float
    delta_1: float
    delta_shift: float
    delta_p: float

    def __post_init__(self) -> None:
        if not (abs(self.delta_0) < math.pi / 2
                and abs(self.delta_1) < math.pi / 2):
            raise ValueError("preview steer angles must lie within (-pi/2, pi/2)")


@dataclass
class VpcConfig:
    lookahead_L: float = ranged("positive", 10.0)
    # steady-state kinematic steer on curvature k is atan((l_f + l_r) * k)
    k_vpc: float = ranged("positive", 2.64)
    frame_window: int = ranged("count", 8)   # stored as an int, as deque needs

    __post_init__ = check_fields


def average_lane_maps(window: Sequence[LaneMap]) -> LaneMap:
    """Merge a window of maps by averaging points that share an x bin.

    Points are pooled across frames into fixed-width bins along x and
    both coordinates are averaged per bin, so identical frames pass
    through unchanged and zero-mean lateral noise cancels.  The output
    carries the newest timestamp.
    """
    if len(window) == 0:
        raise ValueError("cannot average an empty window")
    pooled = np.vstack([m.points for m in window])
    if pooled.shape[0] == 0:
        return LaneMap(pooled, max(m.timestamp for m in window))
    # bincount sums each bin in pooled order, as a per-bin mean does, so
    # the means match to the bit; LaneMap keeps x and so bins nonnegative
    bins = np.floor(pooled[:, 0] / BIN_WIDTH_M).astype(int)
    count = np.bincount(bins)
    used = count > 0
    merged = np.column_stack([np.bincount(bins, col)[used] / count[used]
                              for col in pooled.T])
    return LaneMap(merged, max(m.timestamp for m in window))


def fit_lane_polynomial(lane_map: LaneMap) -> LanePolynomial | None:
    """Least-squares quadratic fit of a lane map.

    Solves the 3x3 normal equations in closed form, on x scaled by the
    window's far end.  Returns None (fit unavailable) when there are
    fewer than 6 points within the fit window, their forward span is
    under 5 m, they hold fewer than three distinct x (no unique
    quadratic), or the residual RMS exceeds 0.3 m; the caller then skips
    the correction for this cycle.
    """
    pts = lane_map.points
    pts = pts[pts[:, 0] <= FIT_WINDOW_M]
    if pts.shape[0] < MIN_FIT_POINTS:
        return None
    x, y = pts[:, 0], pts[:, 1]
    lo, hi = float(x.min()), float(x.max())
    if hi - lo < MIN_FIT_SPAN_M or not np.count_nonzero((x > lo) & (x < hi)):
        return None
    # y = p0 + p1 t + p2 t^2 on t = x / hi in [0, 1] (hi >= 5 m, as x >= 0)
    t = x / hi
    basis = np.column_stack((np.ones_like(t), t, t * t))
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = (basis.T @ basis).tolist()
    r0, r1, r2 = (y @ basis).tolist()
    # Cramer's rule: cofactors of the symmetric Gram matrix
    c00 = g11 * g22 - g12 * g12
    c01 = g01 * g22 - g12 * g02
    c02 = g01 * g12 - g11 * g02
    det = g00 * c00 - g01 * c01 + g02 * c02
    if not det > 0.0:     # three distinct x make it positive, bar rounding
        return None
    p0 = (r0 * c00 - g01 * (r1 * g22 - g12 * r2)
          + g02 * (r1 * g12 - g11 * r2)) / det
    p1 = (g00 * (r1 * g22 - g12 * r2) - r0 * c01
          + g02 * (g01 * r2 - r1 * g02)) / det
    p2 = (g00 * (g11 * r2 - g12 * r1) - g01 * (g01 * r2 - r1 * g02)
          + r0 * c02) / det
    resid = y - basis @ (p0, p1, p2)
    rms = math.sqrt(float(resid @ resid) / resid.size)
    if rms > MAX_FIT_RMS_M:
        return None
    a, b, c = p2 / (hi * hi), p1 / hi, p0
    # the trusted range always reaches back to the ego origin: the fit is
    # near-field and the correction evaluates it at the rear query x = 0
    # even when the closest sensed point sits slightly ahead of the bumper
    return LanePolynomial(a, b, c, (min(0.0, lo), hi), rms)


def curvature_at(poly: LanePolynomial, x: float) -> float:
    """Signed curvature f'' / (1 + f'^2)^(3/2) of the fitted lane at x."""
    lo, hi = poly.valid_range
    if not lo <= x <= hi:
        raise ExtrapolationError(
            f"x = {x} outside fitted range [{lo}, {hi}]")
    fp = 2.0 * poly.a * x + poly.b
    fpp = 2.0 * poly.a
    return fpp / (1.0 + fp * fp) ** 1.5


def preview_correction(delta_now: float, poly: LanePolynomial | None,
                       cfg: VpcConfig | None = None) -> PreviewCorrection:
    """Steering correction from the curvature change ahead.

    Evaluates curvature at the vehicle and at the look-ahead distance,
    converts both to desired steer angles, and returns their difference
    as the shift to apply.  A missing fit (poly is None) or a fit too
    short to reach the look-ahead point yields a zero shift so the
    optimizer's command passes through unchanged.
    """
    cfg = cfg or VpcConfig()
    if poly is not None and poly.valid_range[0] <= 0.0 \
            and poly.valid_range[1] >= cfg.lookahead_L:
        kappa_0 = curvature_at(poly, 0.0)
        kappa_1 = curvature_at(poly, cfg.lookahead_L)
    else:
        kappa_0 = kappa_1 = 0.0
    delta_0 = math.atan(cfg.k_vpc * kappa_0)
    delta_1 = math.atan(cfg.k_vpc * kappa_1)
    shift = delta_1 - delta_0
    return PreviewCorrection(kappa_0, kappa_1, delta_0, delta_1,
                             shift, delta_now + shift)


def apply_vpc(steer_cmd: float, delta_shift: float) -> float:
    """Add the normalized preview shift onto a steering command.

    The shift magnitude is normalized by the steer limit and pushed in
    the direction the command already points, then the result is
    clamped to +-STEER_CMD_MAX, strictly inside the limit.
    """
    if abs(steer_cmd) > 1.0:
        raise ValueError("steer_cmd must lie within [-1, 1]")
    mag = abs(delta_shift) / STEER_LIMIT_RAD
    out = steer_cmd + mag if steer_cmd >= 0.0 else steer_cmd - mag
    return min(max(out, -STEER_CMD_MAX), STEER_CMD_MAX)


@dataclass
class VpcEstimator:
    """Rolling-window lane-curvature estimator.

    Keeps the most recent frames (deduplicated by timestamp, since the
    corrector can tick faster than perception delivers), averages them,
    fits the quadratic, and produces the preview correction.  The fit is
    made once per window: ticks that bring no new frame reuse it.
    """

    config: VpcConfig = field(default_factory=VpcConfig)

    def __post_init__(self) -> None:
        self._frames: deque[LaneMap] = deque(maxlen=self.config.frame_window)
        self._fit = (None,)   # (fit,) of the window; None when it is stale

    def observe(self, lane_map: LaneMap) -> None:
        # same-timestamp frames are repeats of one perception output
        if self._frames and self._frames[-1].timestamp == lane_map.timestamp:
            return
        self._frames.append(lane_map)
        self._fit = None

    def correction(self, delta_now: float = 0.0) -> PreviewCorrection:
        if self._fit is None:
            self._fit = (fit_lane_polynomial(
                average_lane_maps(list(self._frames))),)
        return preview_correction(delta_now, self._fit[0], self.config)
