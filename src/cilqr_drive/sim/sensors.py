"""Synthetic perception, radar, and latency plumbing.

Perception measures heading error and lateral offset with Gaussian
noise and samples the centerline ahead as a bird's-eye-view lane map;
results are delivered after a fixed latency.  Radar reads the gap and
lead speed exactly within its range gate.  All randomness flows through
the caller's generator so scenario runs stay reproducible.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..lanes import LaneMap, SENSING_RANGE_M
from ..longitudinal import LeadMeasurement
from .plant import PlantState
from .track import TrackGeometry

RADAR_RANGE_M = 160.0


@dataclass
class NoiseConfig:
    sigma_theta: float = 0.0
    sigma_delta: float = 0.0
    sigma_lane: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma_theta", "sigma_delta", "sigma_lane"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if min(self.sigma_theta, self.sigma_delta, self.sigma_lane) < 0.0:
            raise ValueError("noise levels must be nonnegative")


@dataclass
class SimRates:
    """Periods and latencies of the multi-rate loop, in microseconds."""

    plant_us: int = 1000
    perception_us: int = 24520
    vpc_us: int = 15560
    planner_us: int = 6660
    perception_latency_us: int = 24520
    actuation_latency_us: int = 6660

    def __post_init__(self) -> None:
        for name in ("plant_us", "perception_us", "vpc_us", "planner_us",
                     "perception_latency_us", "actuation_latency_us"):
            try:
                operator.index(getattr(self, name))  # numpy integers pass
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        periods = (self.plant_us, self.perception_us, self.vpc_us,
                   self.planner_us)
        if min(periods) <= 0:
            raise ValueError("periods must be positive")
        if min(self.perception_latency_us, self.actuation_latency_us) < 0:
            raise ValueError("latencies must be nonnegative")
        if self.plant_us > 2000:
            raise ValueError("plant step must be at most 2 ms")


@dataclass
class PerceptionFrame:
    """One perception output: noisy offset, heading and stamped lane map."""

    theta_meas: float
    delta_meas: float
    lane_map: LaneMap


class LatencyQueue:
    """FIFO of (ready_time, payload); pops only entries whose time came.

    Producers enqueue with nondecreasing ready times (fixed per-channel
    latency guarantees that), which keeps the queue ordered without a
    heap.
    """

    def __init__(self) -> None:
        self._q: deque[tuple[float, object]] = deque()

    def push(self, ready_time: float, payload: object) -> None:
        if self._q and ready_time < self._q[-1][0]:
            raise ValueError("ready times must be nondecreasing")
        self._q.append((ready_time, payload))

    def pop_ready(self, now: float) -> list[object]:
        out = []
        while self._q and self._q[0][0] <= now:
            out.append(self._q.popleft()[1])
        return out


_LANE_SAMPLE_M = np.arange(0.0, SENSING_RANGE_M + 0.5, 1.0)


def perceive(state: PlantState, track: TrackGeometry, noise: NoiseConfig,
             rng: np.random.Generator, now: float) -> PerceptionFrame:
    """Measure (theta, delta) and sample the lane map at time now.

    Draw order is fixed (theta, delta, then lane points) so seeded runs
    reproduce exactly.
    """
    theta_meas = state.theta + (rng.normal(0.0, noise.sigma_theta)
                                if noise.sigma_theta else 0.0)
    delta_meas = state.delta + (rng.normal(0.0, noise.sigma_delta)
                                if noise.sigma_delta else 0.0)
    pts = track.centerline_ahead(state.s, state.delta, state.theta,
                                 _LANE_SAMPLE_M)
    if noise.sigma_lane:
        pts[:, 1] += rng.normal(0.0, noise.sigma_lane, pts.shape[0])
    # boundary samples can land epsilon outside the range after the
    # frame rotation; snap those back instead of dropping them
    keep = (pts[:, 0] >= -1e-9) & (pts[:, 0] <= SENSING_RANGE_M + 1e-9)
    pts = pts[keep]
    pts[:, 0] = np.clip(pts[:, 0], 0.0, SENSING_RANGE_M)
    return PerceptionFrame(theta_meas, delta_meas, LaneMap(pts, now))


def radar_measure(ego_s: float, lead_s: float | None, lead_v: float = 0.0,
                  lead_a: float = 0.0) -> LeadMeasurement | None:
    """Exact gap and lead speed, or None when nothing is in the gate."""
    if lead_s is None:
        return None
    gap = lead_s - ego_s
    if gap <= 0.0 or gap > RADAR_RANGE_M:
        return None
    return LeadMeasurement(v_l=lead_v, D=gap, a_l=lead_a)
