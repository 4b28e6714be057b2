"""Lateral lane-keeping planner.

Builds a constrained iLQR problem around a linear lateral dynamics model
in road-aligned coordinates (offset, offset rate, heading error, heading
error rate) and emits a normalized steering command.  Steering is kept
strictly inside +-pi/6 rad by a log barrier; an exponential barrier on
consecutive lateral offsets rewards motion toward the lane center.

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
    SolveInfo,
    SolveResult,
    SolverConfig,
    forward_pass,
    solve,
)

STEER_LIMIT_RAD = math.pi / 6.0
V_MIN = 1.0             # m/s; the model coefficients divide by v


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
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def wheelbase(self) -> float:
        return self.l_f + self.l_r


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
    steer_limit: float = STEER_LIMIT_RAD
    centering_weight: float = 1.0  # lane-centering exponential scale
    centering_rate: float = 1.0    # lane-centering exponent per meter


@dataclass
class LateralPlanDiagnostics:
    solve_info: SolveInfo
    speed_clamped: bool

    @property
    def converged(self) -> bool:
        return self.solve_info.converged


def build_lateral_dynamics(params: VehicleParams, v: float,
                           dt: float) -> AffineDynamics:
    """Discrete lateral error dynamics at fixed speed v (clamped upstream)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
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
        n, m, lower=-tuning.steer_limit, upper=tuning.steer_limit,
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

    Cold solves walk the barrier sharpness schedule; warm-started cycles
    continue at final sharpness with a small iteration cap, where the
    carried-over solution is already near stationary.  A repeated
    perception frame starts from the previous controls; a new one from
    the previous plan corrected by its own feedback law, u_i = U_i +
    K_i (x_i - X_i) rolled out from the new state, which saves about one
    Newton step.  The problem for each lane-centering branch is built and
    validated once; every cycle re-aims it at the new state and speed.
    """

    def __init__(self, params: VehicleParams | None = None,
                 tuning: LateralTuning | None = None) -> None:
        self.params = params or VehicleParams()
        self.tuning = tuning or LateralTuning()
        self.cold_config = SolverConfig()
        self.warm_config = self.cold_config.for_warm_start(12)
        self._prev: SolveResult | None = None
        dynamics = build_lateral_dynamics(self.params, V_MIN, self.tuning.dt)
        self._problems = {
            branch: build_lateral_problem(
                LateralState(delta_lat=1.0 if branch else -1.0, theta=0.0),
                dynamics, self.tuning)
            for branch in (True, False)}

    def reset(self) -> None:
        self._prev = None

    def plan(self, state: LateralState, v: float
             ) -> tuple[SteerCommand, LateralPlanDiagnostics]:
        if not math.isfinite(v):
            raise ValueError("lateral speed must be finite")
        clamped = v < V_MIN
        v_eff = max(v, V_MIN)
        dynamics = build_lateral_dynamics(self.params, v_eff, self.tuning.dt)
        # the branch rule of build_lateral_problem: offsets >= 0 are positive
        spec = self._problems[state.delta_lat >= 0.0].with_start(
            state.as_vector(), dynamics=dynamics)
        prev, warm, config = self._prev, None, self.cold_config
        if prev is not None:
            # the replan period is much shorter than the prediction step,
            # so the previous optimum is reused unshifted
            warm, config = prev.trajectory.controls, self.warm_config
            if (prev.gains is not None
                    and not np.array_equal(spec.x0, prev.trajectory.states[0])):
                warm = forward_pass(prev.trajectory, prev.gains, 0.0,
                                    spec).controls
        result = solve(spec, warm_start=warm, config=config)
        self._prev = result
        controls = result.trajectory.controls
        delta = float(controls[0, 0])
        cmd = SteerCommand(steer_cmd=delta / self.tuning.steer_limit,
                           delta_rad=delta)
        return cmd, LateralPlanDiagnostics(result.info, clamped)
