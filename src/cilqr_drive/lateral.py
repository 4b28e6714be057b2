"""Lateral lane-keeping planner.

Builds a constrained iLQR problem around a linear lateral dynamics model
in road-aligned coordinates (offset, offset rate, heading error, heading
error rate) and emits a normalized steering command with the solver's
`SolveResult`.  Steering is kept strictly inside +-STEER_LIMIT_RAD
(pi/6 rad, shared with the plant and the preview corrector) by a log
barrier; an exponential barrier on consecutive lateral offsets rewards
motion toward the lane center.

Sign convention: positive offset means the ego is left of the
centerline, positive steering angle steers left.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ilqr import (
    AffineDynamics,
    BarrierTerm,
    ProblemSpec,
    QuadraticCost,
    SolveResult,
    SolverConfig,
    WARM_CONFIG,
    _check_count,
    solve,
)

STEER_LIMIT_RAD = math.pi / 6.0
CLIP_MARGIN = 1e-7      # share of the steer range the warm-start clip leaves
_WARM_STEER_MAX = STEER_LIMIT_RAD - CLIP_MARGIN * (2.0 * STEER_LIMIT_RAD)
# m/s, the slowest model speed: below 6.96 m/s the forward-Euler a22 =
# 1 - 2 (c_f + c_r) dt / (m v) < -1 (default vehicle, dt 0.05 s) diverges
V_MIN = 7.0
MODEL_SPEED_RTOL = 5e-3  # relative speed change a warm cycle's model absorbs
# a cold steering start sits near the central path (the steer bound is far
# from active), so a cold solve starts at the final barrier sharpness
COLD_CONFIG = SolverConfig(barrier_t_init=SolverConfig.barrier_t_max)


@dataclass
class VehicleParams:
    """Single-track model parameters."""

    m: float = 1150.0         # mass, kg
    c_alpha_f: float = 80000.0  # front cornering stiffness, N/rad
    c_alpha_r: float = 80000.0  # rear cornering stiffness, N/rad
    l_f: float = 1.27         # CG to front axle, m
    l_r: float = 1.37         # CG to rear axle, m
    i_z: float = 2000.0       # yaw inertia, kg m^2

    def __post_init__(self) -> None:
        for name in ("m", "c_alpha_f", "c_alpha_r", "l_f", "l_r", "i_z"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if value <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass
class LateralState:
    """Perceived lateral offset and heading error; rates default to zero."""

    delta_lat: float          # m, positive left of centerline
    theta: float              # rad, heading error
    delta_lat_rate: float = 0.0
    theta_rate: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.delta_lat, self.theta, self.delta_lat_rate, self.theta_rate)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("lateral state must be finite")
        if abs(self.theta) >= math.pi:
            raise ValueError("|theta| must be below pi")

    def as_vector(self) -> np.ndarray:
        return np.array([self.delta_lat, self.delta_lat_rate,
                         self.theta, self.theta_rate])


@dataclass
class SteerCommand:
    steer_cmd: float   # normalized, strictly inside (-1, 1)
    delta_rad: float   # steering angle, strictly inside (-pi/6, pi/6)


@dataclass
class LateralTuning:
    horizon: int = 30
    dt: float = 0.05               # s
    q_diag: tuple = (20.0, 1.0, 20.0, 1.0)
    r: float = 1.0
    centering_weight: float = 1.0  # lane-centering exponential scale
    centering_rate: float = 1.0    # lane-centering exponent per meter

    def __post_init__(self) -> None:
        # the lateral.* config rows' ranges, each error naming its field
        _check_count(self.horizon, "horizon")
        for name in ("dt", "r", "centering_weight", "centering_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("dt", "r", "centering_weight"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not all(math.isfinite(q) for q in self.q_diag):
            raise ValueError("q_diag must be finite")
        if self.centering_rate < 0.0:
            raise ValueError("centering_rate must be nonnegative")
        if len(self.q_diag) != 4 or min(self.q_diag) < 0.0:
            raise ValueError("q_diag must hold 4 nonnegative entries")


def build_lateral_dynamics(params: VehicleParams, v: float,
                           dt: float) -> AffineDynamics:
    """Discrete lateral error dynamics at fixed speed v (clamped upstream)."""
    for name, value in (("v", v), ("dt", dt)):
        if not 0.0 < value < math.inf:      # NaN fails too
            raise ValueError(f"{name} must be positive and finite")
    cf, cr = params.c_alpha_f, params.c_alpha_r
    m, iz = params.m, params.i_z
    lf, lr = params.l_f, params.l_r
    a22 = 1.0 - 2.0 * (cf + cr) * dt / (m * v)
    a23 = 2.0 * (cf + cr) * dt / m
    a24 = 2.0 * (-cf * lf + cr * lr) * dt / (m * v)
    a42 = 2.0 * (cf * lf - cr * lr) * dt / (iz * v)
    a43 = 2.0 * (cf * lf - cr * lr) * dt / iz
    a44 = 1.0 - 2.0 * (cf * lf ** 2 - cr * lr ** 2) * dt / (iz * v)
    A = np.array([
        [1.0, dt, 0.0, 0.0],
        [0.0, a22, a23, a24],
        [0.0, 0.0, 1.0, dt],
        [0.0, a42, a43, a44],
    ])
    b1 = 2.0 * cf * dt / m
    b2 = 2.0 * cf * lf * dt / iz
    B = np.array([[0.0], [b1], [0.0], [b2]])
    return AffineDynamics(A=A, B=B)


def build_lateral_problem(state: LateralState, dynamics: AffineDynamics,
                          tuning: LateralTuning) -> ProblemSpec:
    """Lane-keeping horizon problem around the given frozen dynamics.

    The lane-centering barrier branch is selected by the sign of the
    current offset: nonnegative offsets reward decreasing offsets and
    vice versa, so the term always pushes toward the centerline.
    """
    n, m = 4, 1
    cost = QuadraticCost(Q=np.diag(tuning.q_diag), R=[[tuning.r]],
                         x_ref=np.zeros(4))
    steer_barrier = BarrierTerm.log_range(
        n, m, lower=-STEER_LIMIT_RAD, upper=STEER_LIMIT_RAD,
        control_index=0)
    centering = BarrierTerm.lane_centering(
        n, m, state_index=0, branch_positive=state.delta_lat >= 0.0,
        weight=tuning.centering_weight, rate=tuning.centering_rate)
    return ProblemSpec(
        dynamics=dynamics,
        horizon=tuning.horizon,
        cost=cost,
        terminal_cost=cost,
        x0=state.as_vector(),
        barriers=(steer_barrier, centering),
        terminal_barriers=(centering,),
    )


class LateralPlanner:
    """Receding-horizon wrapper owning the warm-start buffer.

    A cold cycle (the first, and the first after reset) solves with
    COLD_CONFIG, the solver defaults at the final barrier sharpness;
    warm-started cycles solve with WARM_CONFIG, one real-time iteration
    from the previous plan.  A repeated perception
    frame starts from the previous controls; after a solve that returned
    its own warm start, that re-poses the previous solve bit for bit, and
    solve answers it from its memo without recomputing.  A new frame
    starts from the previous plan re-aimed at the new state by its
    start-state gains, U + S dx0, which saves about one Newton step.
    That can cross the steer bound after a large jump, so it is clipped
    CLIP_MARGIN of the range inside, close enough to leave bound-riding
    optima (down to 5e-7 of the range inside) in place.  The problem for
    each lane-centering branch is built and validated once; a cycle re-aims
    it at a new state or model, and a repeated frame under the kept model
    passes it to solve as it is.  A warm cycle keeps the branch's model
    while the speed stays within MODEL_SPEED_RTOL of the speed that model
    was derived at, and re-derives it at the exact speed beyond that; a
    cold cycle always plans with the model of its exact speed, so it stays
    a function of its state and speed alone.  Keeping the anchor at the
    model's own speed stops the model from creeping away from the plant.
    """

    def __init__(self, params: VehicleParams | None = None,
                 tuning: LateralTuning | None = None) -> None:
        self.params = params or VehicleParams()
        self.tuning = tuning or LateralTuning()
        self._prev: SolveResult | None = None
        dynamics = build_lateral_dynamics(self.params, V_MIN, self.tuning.dt)
        # per branch: the speed its model was derived at, and that problem
        self._problems = {
            branch: (V_MIN, build_lateral_problem(
                LateralState(delta_lat=1.0 if branch else -1.0, theta=0.0),
                dynamics, self.tuning))
            for branch in (True, False)}

    def reset(self) -> None:
        self._prev = None

    def plan(self, state: LateralState, v: float
             ) -> tuple[SteerCommand, SolveResult]:
        """Plan one steering command at speed v (clamped below at V_MIN)."""
        if not math.isfinite(v):
            raise ValueError("lateral speed must be finite")
        v_eff = max(v, V_MIN)
        # the branch rule of build_lateral_problem: offsets >= 0 are positive
        branch = state.delta_lat >= 0.0
        speed, problem = self._problems[branch]
        prev, warm, config = self._prev, None, COLD_CONFIG
        dynamics = None
        if v_eff != speed and (prev is None or abs(v_eff - speed)
                               > MODEL_SPEED_RTOL * speed):
            speed = v_eff
            dynamics = build_lateral_dynamics(self.params, speed,
                                              self.tuning.dt)
        spec, x0 = problem, state.as_vector()
        # a repeated frame under the kept model is posed already (compared
        # as bytes, as solve's memo key is: -0.0 is not 0.0)
        if dynamics is not None or x0.tobytes() != spec.x0.tobytes():
            spec = problem.with_start(x0, dynamics=dynamics)
        self._problems[branch] = (speed, spec)
        if prev is not None:
            # the replan period is much shorter than the prediction step,
            # so the previous optimum is reused unshifted
            warm, config = prev.trajectory.controls, WARM_CONFIG
            if (prev.gains is not None
                    and not np.array_equal(spec.x0, prev.trajectory.states[0])):
                warm = prev.trajectory.controls + prev.gains @ (
                    spec.x0 - prev.trajectory.states[0])
                np.clip(warm, -_WARM_STEER_MAX, _WARM_STEER_MAX, out=warm)
        self._prev = result = solve(spec, warm_start=warm, config=config)
        delta = float(result.trajectory.controls[0, 0])
        return SteerCommand(steer_cmd=delta / STEER_LIMIT_RAD,
                            delta_rad=delta), result
