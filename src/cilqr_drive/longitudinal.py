"""Longitudinal planner: PI cruise with a car-following jerk override.

Cruise speed is held by a PI loop squashed through tanh.  When a radar
lead is close enough, a constrained iLQR problem over inter-vehicle
distance, ego speed and ego acceleration plans a jerk sequence; its
first element is added to the PI command.  Jerk stays strictly inside
+-1 m/s^3 via a log barrier, while soft exponential penalties hold the
gap above the reference distance and acceleration inside +-5 m/s^2.

The brake channel is separate: it ramps from 0 to 1 as the measured gap
falls from the critical distance to the floor distance.  `plan` returns
the command with the solver's `SolveResult` of a following cycle, or
None on a cruise cycle.
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
    WARM_CONFIG,
    _check_count,
    solve,
)

K_P = 0.5                 # PI gain per m/s of speed error
K_I = 0.05                # PI gain per m of integrated speed error
INTEGRAL_LIMIT = 2.0      # anti-windup clamp, m
ENGAGE_DISTANCE = 120.0   # a lead closer than this starts following, m
RELEASE_DISTANCE = 140.0  # following stops beyond this, m
ACCEL_TAU = 0.5           # time constant of the acceleration low-pass, s


@dataclass
class LongitudinalState:
    """Gap to the lead, ego speed, ego acceleration.

    The gap is ignored when planning without a lead.
    """

    D: float
    v: float
    a: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in (self.D, self.v, self.a)):
            raise ValueError("longitudinal state must be finite")
        if self.D < 0.0:
            raise ValueError("gap must be nonnegative")

    def as_vector(self) -> np.ndarray:
        return np.array([self.D, self.v, self.a])


@dataclass
class LeadMeasurement:
    v_l: float          # lead speed, m/s
    D: float            # measured gap, m
    a_l: float = 0.0    # radar assumes a steady lead

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in (self.v_l, self.D, self.a_l)):
            raise ValueError("lead measurement must be finite")
        if self.D <= 0.0:
            raise ValueError("measured gap must be positive")


@dataclass
class PiState:
    """Mutable PI loop state; the integral carries units of meters."""

    v_r: float                    # reference speed, m/s
    period: float                 # seconds between pi_cruise calls
    integral: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v_r) and math.isfinite(self.integral)):
            raise ValueError("PI state must be finite")
        if not math.isfinite(self.period):
            raise ValueError("period must be finite")
        if self.period <= 0.0:
            raise ValueError("period must be positive")


@dataclass
class LongCommand:
    accel_cmd: float   # normalized, in [-1, 1]
    brake_cmd: float   # normalized, in [0, 1]


@dataclass
class LongTuning:
    horizon: int = 30
    dt: float = 0.1                # prediction step, s
    d_ref: float = 11.0            # reference gap, m
    q_diag: tuple = (20.0, 20.0, 1.0)
    r: float = 1.0
    jerk_limit: float = 1.0        # m/s^3
    accel_limit: float = 5.0       # m/s^2
    d_critical: float = 5.5        # brake ramp starts here, m
    d_floor: float = 2.0           # full brake at or below, m

    def __post_init__(self) -> None:
        # the longitudinal.* config rows' ranges, each error naming its field
        _check_count(self.horizon, "horizon")
        for name in ("dt", "d_ref", "r", "jerk_limit", "accel_limit",
                     "d_critical", "d_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not all(math.isfinite(q) for q in self.q_diag):
            raise ValueError("q_diag must be finite")
        if len(self.q_diag) != 3 or min(self.q_diag) < 0.0:
            raise ValueError("q_diag must hold 3 nonnegative entries")
        if self.d_critical <= self.d_floor:
            raise ValueError("need 0 < d_floor < d_critical")
        if self.d_critical >= self.d_ref:
            raise ValueError("critical distance must sit below the reference")


def pi_cruise(pi: PiState, v: float) -> float:
    """One PI update squashed through tanh; mutates the integral."""
    # positive error = below reference, so the command pushes forward
    e = pi.v_r - v
    raw = pi.integral + e * pi.period
    pi.integral = min(max(raw, -INTEGRAL_LIMIT), INTEGRAL_LIMIT)
    return math.tanh(K_P * e + K_I * pi.integral)


def build_longitudinal_dynamics(dt: float, v_l: float = 0.0,
                                a_l: float = 0.0) -> AffineDynamics:
    """Gap/speed/acceleration model driven by jerk with a lead drift term."""
    if not 0.0 < dt < math.inf:      # NaN fails too
        raise ValueError("dt must be positive and finite")
    for name, value in (("v_l", v_l), ("a_l", a_l)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    A = np.array([
        [1.0, -dt, -0.5 * dt * dt],
        [0.0, 1.0, dt],
        [0.0, 0.0, 1.0],
    ])
    B = np.array([[0.0], [0.0], [dt]])
    C = np.array([
        [0.0, dt, 0.5 * dt * dt],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    return AffineDynamics(A=A, B=B, C=C, w=_lead_drift(v_l, a_l))


def _lead_drift(v_l: float, a_l: float) -> np.ndarray:
    """build_longitudinal_dynamics' disturbance w: lead speed and accel."""
    return np.array([0.0, v_l, a_l])


def build_following_problem(state: LongitudinalState, lead: LeadMeasurement,
                            tuning: LongTuning) -> ProblemSpec:
    """Car-following horizon problem around the current radar measurement."""
    n, m = 3, 1
    dynamics = build_longitudinal_dynamics(tuning.dt, lead.v_l, lead.a_l)
    cost = QuadraticCost(Q=np.diag(tuning.q_diag), R=[[tuning.r]],
                         x_ref=_reference(lead, tuning))
    jerk = BarrierTerm.log_range(n, m, lower=-tuning.jerk_limit,
                                 upper=tuning.jerk_limit, control_index=0)
    # exp(D_ref - D): explodes as the gap closes below the reference
    gap_floor = BarrierTerm.exp_one_sided(n, m, coeff=-1.0,
                                          offset=tuning.d_ref, state_index=0)
    accel_caps = [BarrierTerm.exp_one_sided(n, m, coeff=side,
                                            offset=-tuning.accel_limit,
                                            state_index=2)
                  for side in (1.0, -1.0)]
    soft = (gap_floor, *accel_caps)
    return ProblemSpec(
        dynamics=dynamics,
        horizon=tuning.horizon,
        cost=cost,
        terminal_cost=cost,
        x0=state.as_vector(),
        barriers=(jerk, *soft),
        terminal_barriers=soft,
    )


def _reference(lead: LeadMeasurement, tuning: LongTuning) -> np.ndarray:
    """Reference state: the reference gap at the lead's speed and accel."""
    return np.array([tuning.d_ref, lead.v_l, lead.a_l])


def brake_ramp(D: float, tuning: LongTuning) -> float:
    """0 above the critical gap, 1 at or below the floor, linear between."""
    if D >= tuning.d_critical:
        return 0.0
    frac = (tuning.d_critical - D) / (tuning.d_critical - tuning.d_floor)
    return min(max(frac, 0.0), 1.0)


class LongitudinalPlanner:
    """Receding-horizon wrapper: hysteresis, accel estimate, warm starts.

    Car-following engages when a lead is reported inside the engage
    range and releases only beyond the release range, so mode flips do
    not chatter at the boundary.  While following, the cruise reference
    is capped at the lead speed: tracking the gap is the solver's job
    and the PI loop must not fight it by pushing toward cruise speed.
    Ego acceleration is not sensed directly: a first-order low-pass with
    time constant ACCEL_TAU filters the speed differences, `pi.period`
    seconds apart (the same period drives the PI integral).  A shorter
    average echoes the last command into chatter; on trackB seeds 0-9
    every tau in 0.25-2 s avoids that, and 0.5 s keeps the lag short.
    The following problem is built and validated once; every cycle
    re-aims it at the new state and at the lead's drift and reference.
    """

    def __init__(self, cruise_speed: float, period: float,
                 tuning: LongTuning | None = None) -> None:
        self.cruise_speed = cruise_speed
        self.tuning = tuning or LongTuning()
        self.pi = PiState(v_r=cruise_speed, period=period)
        self.reset()
        d_ref = self.tuning.d_ref
        self._problem = build_following_problem(
            LongitudinalState(D=d_ref, v=0.0),
            LeadMeasurement(v_l=0.0, D=d_ref), self.tuning)

    def reset(self) -> None:
        self.following = False
        self._prev: SolveResult | None = None
        self._last_v: float | None = None
        self._accel = 0.0
        self.pi.integral = 0.0
        self.pi.v_r = self.cruise_speed

    def _estimate_accel(self, v: float) -> float:
        p = self.pi.period
        if self._last_v is not None:
            self._accel += p / (ACCEL_TAU + p) * (
                (v - self._last_v) / p - self._accel)
        self._last_v = v
        return self._accel

    def plan(self, v: float, lead: LeadMeasurement | None
             ) -> tuple[LongCommand, SolveResult | None]:
        """Plan one accel/brake command; the result is None on a cruise
        cycle, and `following` tells the mode."""
        # checked before the speed enters the acceleration estimate, which
        # a rejected speed would otherwise poison for good
        if not math.isfinite(v):
            raise ValueError("longitudinal state must be finite")
        a_est = self._estimate_accel(v)
        if self.following:
            if lead is None or lead.D > RELEASE_DISTANCE:
                self.following = False
        elif lead is not None and lead.D < ENGAGE_DISTANCE:
            self.following = True
        if not self.following:
            self.pi.v_r = self.cruise_speed
            self._prev = None
            return LongCommand(pi_cruise(self.pi, v), 0.0), None
        assert lead is not None
        self.pi.v_r = min(self.cruise_speed, lead.v_l)
        state = LongitudinalState(D=lead.D, v=v, a=a_est)
        # only the lead's drift moves the model: A, B and their data stay
        spec = self._problem.with_start(
            state.as_vector(),
            dynamics=self._problem.dynamics.with_drift(
                _lead_drift(lead.v_l, lead.a_l)),
            x_ref=_reference(lead, self.tuning))
        # The replan period is far shorter than the prediction step, so the
        # previous plan is reused as-is; shifting it by a whole step would
        # misalign it by an order of magnitude more than the elapsed time.
        warm, config = None, None
        if self._prev is not None:
            warm, config = self._prev.trajectory.controls, WARM_CONFIG
        accel = pi_cruise(self.pi, v)
        # not converged is tolerated: best-so-far jerk, flag in result.info
        self._prev = result = solve(spec, warm_start=warm, config=config)
        j0 = float(result.trajectory.controls[0, 0])
        return LongCommand(min(max(accel + j0, -1.0), 1.0),
                           brake_ramp(lead.D, self.tuning)), result
