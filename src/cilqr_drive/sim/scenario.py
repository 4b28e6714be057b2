"""Multi-rate closed-loop scenario execution and metrics.

The loop advances an integer microsecond clock at the plant step and
fires each subsystem on its own period, resolving simultaneous events
in a fixed order: perception, preview correction, planners, actuation,
plant.  Everything stochastic draws from one seeded generator in a
fixed sequence, so a scenario is a pure function of its spec.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from ..lanes import VpcConfig, VpcEstimator, apply_vpc
from ..lateral import (STEER_LIMIT_RAD, LateralPlanner, LateralState,
                       LateralTuning, VehicleParams)
from ..longitudinal import LongitudinalPlanner, LongTuning
from .plant import OffTrackError, PlantState, step_plant
from .sensors import (LatencyQueue, NoiseConfig, SimRates, perceive,
                      radar_measure)
from .track import TRACKS, TrackGeometry, build_track

CSV_COLUMNS = ("time_s", "s_m", "delta_m", "theta_rad", "v_mps",
               "steer_cmd", "accel_cmd", "brake_cmd", "D_m", "v_l_mps",
               "solver_iters", "solver_time_ms", "event")

CONTROLLERS = ("cilqr", "vpc-cilqr")


@dataclass
class LeadSpec:
    """Lead vehicle ahead of the ego with a sinusoidal speed profile.

    speed(t) = base_speed + amplitude * sin(2 pi t / period_s); the arc
    position is the exact integral, so lead kinematics carry no
    integration error.
    """

    initial_gap: float = 35.0
    base_speed: float = 63.5 / 3.6
    amplitude: float = 0.0
    period_s: float = 20.0

    def __post_init__(self) -> None:
        for name in ("initial_gap", "base_speed", "amplitude", "period_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.initial_gap <= 0.0:
            raise ValueError("initial_gap must be positive")
        if self.base_speed <= 0.0 or self.base_speed <= abs(self.amplitude):
            raise ValueError("lead speed must stay positive")
        if self.period_s <= 0.0:
            raise ValueError("period_s must be positive")

    def speed(self, t: float) -> float:
        return self.base_speed + self.amplitude * math.sin(
            2.0 * math.pi * t / self.period_s)

    def accel(self, t: float) -> float:
        w = 2.0 * math.pi / self.period_s
        return self.amplitude * w * math.cos(w * t)

    def travel(self, t: float) -> float:
        """Distance covered since t = 0 (closed form)."""
        w = 2.0 * math.pi / self.period_s
        return self.base_speed * t - (self.amplitude / w) * (
            math.cos(w * t) - 1.0)


@dataclass
class ScenarioSpec:
    """Complete description of one closed-loop run."""

    track: str = "straight"
    duration_s: float | None = None
    laps: float | None = None
    cruise_speed: float = 76.0 / 3.6
    start_s: float = 0.0
    start_delta: float = 0.0
    start_theta: float = 0.0
    start_v: float | None = None
    lead: LeadSpec | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    rates: SimRates = field(default_factory=SimRates)
    seed: int = 0
    metrics_t_range: tuple[float, float] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.track not in TRACKS:
            raise ValueError(f"unknown track preset: {self.track!r}")
        for name in ("duration_s", "laps", "cruise_speed", "start_s",
                     "start_delta", "start_theta", "start_v"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if (self.duration_s is None) == (self.laps is None):
            raise ValueError("set exactly one of duration_s or laps")
        if self.duration_s is not None and self.duration_s <= 0.0:
            raise ValueError("duration_s must be positive")
        if self.laps is not None and self.laps <= 0.0:
            raise ValueError("laps must be positive")
        if self.cruise_speed <= 0.0:
            raise ValueError("cruise_speed must be positive")
        if self.start_v is not None and self.start_v < 0.0:
            raise ValueError("start_v must be nonnegative")
        try:
            seed = operator.index(self.seed)    # numpy integers pass
        except TypeError:
            raise ValueError("seed must be an integer") from None
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        window = self.metrics_t_range
        if window is not None and not (
                len(window) == 2 and 0.0 <= window[0] < window[1]):
            raise ValueError("metrics_t_range must be (start, end), 0 <= start < end")
        if window is not None and window[0] >= (limit := self.time_limit_s):
            raise ValueError(f"metrics_t_range must start before the run's "
                             f"time limit, {limit:g} s")

    @property
    def time_limit_s(self) -> float:
        """When the run stops: duration_s, or 4x the laps at cruise speed."""
        if self.duration_s is not None:
            return self.duration_s
        return (self.laps * build_track(self.track).length
                / self.cruise_speed * 4.0)


@dataclass
class SimLog:
    """Plant-rate time series of one run plus the context to score it."""

    columns: dict[str, np.ndarray]
    events: list[str]
    track: TrackGeometry
    spec: ScenarioSpec
    controller: str
    terminal_event: str = ""
    long_tuning: LongTuning = field(default_factory=LongTuning)

    def __len__(self) -> int:
        return self.columns["time_s"].shape[0]

    def to_csv(self, path: str) -> None:
        """Write the documented fixed-column CSV (header mandatory)."""
        rows = np.column_stack([self.columns[c] for c in CSV_COLUMNS[:-1]])
        fmt = "%.10g," * (len(CSV_COLUMNS) - 1) + "%s"
        lines = [",".join(CSV_COLUMNS)]
        lines += [fmt % (*row, ev)
                  for row, ev in zip(rows.tolist(), self.events)]
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _plan_state(frame) -> LateralState:
    # perception reports offset and heading only; the rates are taken as
    # zero at each replan rather than reconstructed from kinematics, which
    # would feed heading noise straight into the predicted offset ramp
    return LateralState(delta_lat=frame.delta_meas,
                        theta=frame.theta_meas,
                        delta_lat_rate=0.0,
                        theta_rate=0.0)


def run_scenario(spec: ScenarioSpec, controller: str = "cilqr",
                 longitudinal: bool = False,
                 log_solver_time: bool = False,
                 vehicle: VehicleParams | None = None,
                 lateral_tuning: LateralTuning | None = None,
                 long_tuning: LongTuning | None = None,
                 vpc_config: VpcConfig | None = None) -> SimLog:
    """Run one closed-loop scenario and return its complete log.

    controller selects plain CILQR steering or CILQR with the curvature
    preview correction; longitudinal enables radar-based car following
    (otherwise the speed loop only holds the cruise reference).  The
    optional parameter objects override the published defaults in both
    the planners and the plant.  The log gets one row per plant step; a
    collision or off-track excursion truncates it with a terminal event
    row.
    """
    if controller not in CONTROLLERS:
        raise ValueError(f"controller must be one of {CONTROLLERS}")
    track = build_track(spec.track)
    rates = spec.rates
    rng = np.random.default_rng(spec.seed)

    lat_planner = LateralPlanner(params=vehicle, tuning=lateral_tuning)
    lon_planner = LongitudinalPlanner(cruise_speed=spec.cruise_speed,
                                      tuning=long_tuning,
                                      period=rates.planner_us * 1e-6)
    vpc = (VpcEstimator(vpc_config or VpcConfig())
           if controller == "vpc-cilqr" else None)
    plant_params = vehicle or VehicleParams()

    state = PlantState(
        s=spec.start_s, delta=spec.start_delta, theta=spec.start_theta,
        v=spec.cruise_speed if spec.start_v is None else spec.start_v)
    lead = spec.lead
    lead_s0 = spec.start_s + lead.initial_gap if lead else None

    end_us = int(round(spec.time_limit_s * 1e6))
    end_s = (math.inf if spec.laps is None
             else spec.start_s + spec.laps * track.length)

    perc_queue = LatencyQueue()
    act_queue = LatencyQueue()
    latest_frame = planned_frame = None
    correction = None
    applied = (0.0, 0.0, 0.0)            # steer_cmd, accel_cmd, brake_cmd
    cycle_iters = 0
    cycle_ms = 0.0

    rows = []     # one tuple per plant step, in CSV_COLUMNS order
    terminal = ""

    # the periods need not divide the plant step: each subsystem fires
    # at the first plant boundary at or after its nominal due time, so
    # the average cadence is exact with sub-step jitter
    perception_due = 0
    vpc_due = 0
    planner_due = 0

    t_us = 0
    dt = rates.plant_us * 1e-6
    while t_us <= end_us:
        now = t_us * 1e-6

        if t_us >= perception_due:
            perception_due += rates.perception_us
            framed = perceive(state, track, spec.noise, rng, now)
            perc_queue.push(t_us + rates.perception_latency_us, framed)
        for payload in perc_queue.pop_ready(t_us):
            latest_frame = payload

        if t_us >= vpc_due:
            vpc_due += rates.vpc_us
            if vpc is not None and latest_frame is not None:
                vpc.observe(latest_frame.lane_map)
                correction = vpc.correction()

        if t_us >= planner_due and latest_frame is not None:
            # catch up to the nominal grid after the first frame arrives
            while planner_due <= t_us:
                planner_due += rates.planner_us
            t0 = time.perf_counter() if log_solver_time else 0.0
            if planned_frame is not latest_frame:    # one state per frame
                planned_frame, plan_state = latest_frame, _plan_state(
                    latest_frame)
            cmd, result = lat_planner.plan(plan_state, state.v)
            steer_cmd = cmd.steer_cmd
            if correction is not None:
                steer_cmd = apply_vpc(steer_cmd, correction.delta_shift)
            if longitudinal and lead is not None:
                meas = radar_measure(state.s, lead_s0 + lead.travel(now),
                                     lead.speed(now), lead.accel(now))
            else:
                meas = None
            lcmd, lresult = lon_planner.plan(state.v, meas)
            act_queue.push(t_us + rates.actuation_latency_us,
                           (steer_cmd, lcmd.accel_cmd, lcmd.brake_cmd))
            cycle_iters = result.info.iterations
            if lresult is not None:
                cycle_iters += lresult.info.iterations
            if log_solver_time:
                cycle_ms = (time.perf_counter() - t0) * 1e3

        for payload in act_queue.pop_ready(t_us):
            applied = payload

        if lead is not None:
            lead_s = lead_s0 + lead.travel(now)
            gap = lead_s - state.s
            v_l = lead.speed(now)
        else:
            gap = math.nan
            v_l = math.nan

        rows.append((now, state.s, state.delta, state.theta, state.v,
                     applied[0], applied[1], applied[2], gap, v_l,
                     float(cycle_iters), cycle_ms))

        if lead is not None and gap <= 0.0:
            terminal = "collision"
            break
        if state.s >= end_s:
            terminal = "finish"
            break

        try:
            state = step_plant(state, applied[0] * STEER_LIMIT_RAD,
                               applied[1], applied[2], dt, track,
                               params=plant_params)
        except OffTrackError:
            terminal = "off_track"
            break
        t_us += rates.plant_us

    # the loop always logs t = 0, and only the last row carries an event
    terminal = terminal or "time_limit"
    events = [""] * (len(rows) - 1) + [terminal]
    columns = dict(zip(CSV_COLUMNS, np.array(rows).T.copy()))
    return SimLog(columns, events, track, spec, controller,
                  terminal_event=terminal, long_tuning=lon_planner.tuning)


def compute_metrics(log: SimLog) -> dict:
    """Score a run: tracking MAEs, peak offsets, and solver statistics.

    Lateral metrics and the gap extremes cover the whole log; the
    following MAEs cover the scenario's metrics window (or every row with
    a lead in range).  The max-offset-at-peak-curvature entry masks rows
    where |kappa| is within 5% of the track maximum.  The gap error is
    taken against the run's own reference gap, log.long_tuning.d_ref.
    """
    if len(log) == 0:
        raise ValueError("empty log")
    c = log.columns
    track = log.track
    out = {
        "duration_s": float(c["time_s"][-1]),
        "distance_m": float(c["s_m"][-1] - c["s_m"][0]),
        "terminal_event": log.terminal_event,
        "controller": log.controller,
        "theta_mae_rad": float(np.mean(np.abs(c["theta_rad"]))),
        "delta_mae_m": float(np.mean(np.abs(c["delta_m"]))),
        "delta_max_abs_m": float(np.max(np.abs(c["delta_m"]))),
    }
    if track.max_kappa > 0.0:
        mask = (np.abs(track.curvature_many(c["s_m"]))
                >= 0.95 * track.max_kappa)
        out["delta_max_abs_kmax_m"] = (
            float(np.max(np.abs(c["delta_m"][mask]))) if mask.any()
            else math.nan)
    else:
        out["delta_max_abs_kmax_m"] = math.nan

    window = np.isfinite(c["D_m"])
    if log.spec.metrics_t_range is not None:
        lo, hi = log.spec.metrics_t_range
        window &= (c["time_s"] >= lo) & (c["time_s"] <= hi)
    out["v_mae_mps"] = out["d_mae_m"] = math.nan
    if window.any():
        out["v_mae_mps"] = float(np.mean(
            np.abs(c["v_mps"][window] - c["v_l_mps"][window])))
        out["d_mae_m"] = float(np.mean(
            np.abs(c["D_m"][window] - log.long_tuning.d_ref)))
    # a run without a lead logs NaN gaps, which fmin skips (all NaN: NaN)
    out["gap_min_m"] = float(np.fmin.reduce(c["D_m"]))
    out["gap_last_m"] = float(c["D_m"][-1])

    # NaN when the run did not time its cycles (log_solver_time off)
    timed = c["solver_time_ms"][c["solver_time_ms"] > 0.0]
    if timed.size == 0:
        timed = np.array([math.nan])
    out["solver_time_mean_ms"] = float(np.mean(timed))
    out["solver_time_max_ms"] = float(np.max(timed))
    out["solver_iters_max"] = float(np.max(c["solver_iters"]))
    return out


# ---------------------------------------------------------------------------
# Scenario presets used by the command-line runner and the test suite.
# ---------------------------------------------------------------------------

def preset_straight_smoke(seed: int = 0) -> ScenarioSpec:
    """Short straight-line regulation check with clean sensors."""
    return ScenarioSpec(track="straight", duration_s=10.0,
                        cruise_speed=76.0 / 3.6, seed=seed,
                        name="straight-smoke")


def preset_trackA_lane_keeping(seed: int = 0) -> ScenarioSpec:
    """One lap of the stadium circuit at 76 km/h with sensor noise."""
    return ScenarioSpec(track="trackA", laps=1.0, cruise_speed=76.0 / 3.6,
                        noise=NoiseConfig(sigma_theta=0.005,
                                          sigma_delta=0.03,
                                          sigma_lane=0.05),
                        seed=seed, name="trackA-lane-keeping")


def preset_trackB_following(seed: int = 0) -> ScenarioSpec:
    """Approach and follow a slower lead on the long straight."""
    return ScenarioSpec(track="trackB", duration_s=45.0,
                        cruise_speed=76.0 / 3.6,
                        lead=LeadSpec(initial_gap=35.0,
                                      base_speed=63.5 / 3.6,
                                      amplitude=0.5 / 3.6,
                                      period_s=20.0),
                        noise=NoiseConfig(sigma_theta=0.005,
                                          sigma_delta=0.03,
                                          sigma_lane=0.05),
                        metrics_t_range=(20.0, 45.0),
                        seed=seed, name="trackB-following")
