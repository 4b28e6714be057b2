"""Outside-in instrumentation of cilqr_drive by rebinding its public names.

Every run of the benchmark keeps the result of each planner solve (the
pass-through reads no clock), so outputs can be checked and plans scored.
The traced run also records a span around every wrapped call: name,
start, end, parent span and planner-cycle id.  Spans stay in memory and
are reduced to per-layer metrics when the run ends.  Only public names
are rebound, and each is restored on exit.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name); the module is the one whose globals the
# caller resolves the name from, so rebinding there intercepts the call
FUNCTIONS = (
    ("cilqr_drive.sim.scenario", "perceive", "sim.sensors.perceive"),
    ("cilqr_drive.sim.scenario", "radar_measure", "sim.sensors.radar"),
    ("cilqr_drive.sim.scenario", "step_plant", "sim.plant.step"),
    ("cilqr_drive.lateral", "solve", "lateral.solve"),
    ("cilqr_drive.longitudinal", "solve", "longitudinal.solve"),
    ("cilqr_drive.ilqr", "backward_pass", "ilqr.backward_pass"),
    ("cilqr_drive.lanes", "fit_lane_polynomial", "lanes.fit"),
)
# (module, class, method, span name)
METHODS = (
    ("cilqr_drive.lateral", "LateralPlanner", "plan", "lateral.plan"),
    ("cilqr_drive.longitudinal", "LongitudinalPlanner", "plan",
     "longitudinal.plan"),
    ("cilqr_drive.lanes", "VpcEstimator", "observe", "lanes.observe"),
    ("cilqr_drive.lanes", "VpcEstimator", "correction", "lanes.correction"),
)
SOLVERS = {"lateral.solve": "lateral", "longitudinal.solve": "longitudinal"}

STOP_REASONS = {
    "stationary": "stationary",
    "cost decrease below tolerance": "cost_tolerance",
    "iteration cap reached": "iteration_cap",
    "line search stalled at regularization cap": "line_search_stalled",
    "backward pass failed at regularization cap": "backward_failed",
}
STOP_NAMES = tuple(STOP_REASONS.values()) + ("other",)


@dataclass
class Solve:
    """One planner solve as the planner received it."""

    planner: str          # "lateral" or "longitudinal"
    cycle: int            # planner-cycle id: count of lateral plans - 1
    spec: object          # the ProblemSpec passed to solve
    config: object        # the SolverConfig passed to solve (or None)
    result: object        # the SolveResult returned


class Recorder:
    """Collects solves always and spans when trace is set."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.cycle = -1
        self.solves: list[Solve] = []
        self.fits = 0
        self.fits_none = 0
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.cycles: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cycles.append(self.cycle)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes."""
        if not self.trace:
            yield
            return
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        planner = SOLVERS.get(name)
        rec = self

        def call(*args, **kwargs):
            if name == "lateral.plan":
                rec.cycle += 1
            sid = rec._open(name) if rec.trace else -1
            try:
                out = fn(*args, **kwargs)
            finally:
                if sid >= 0:
                    rec._close(sid)
            if planner is not None:
                config = kwargs.get("config", args[2] if len(args) > 2
                                    else None)
                rec.solves.append(Solve(planner, rec.cycle, args[0], config,
                                        out))
            elif name == "lanes.fit":
                rec.fits += 1
                rec.fits_none += out is None
            return out

        return call

    @contextmanager
    def installed(self):
        """Rebind the program's names for the duration of the block.

        Untraced, only the names that feed the solve and cycle records are
        rebound; traced, every name in FUNCTIONS and METHODS is.
        """
        keep = {"lateral.solve", "longitudinal.solve", "lateral.plan"}
        saved = []
        try:
            for mod_name, attr, name in FUNCTIONS:
                if self.trace or name in keep:
                    mod = importlib.import_module(mod_name)
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            for mod_name, cls_name, attr, name in METHODS:
                if self.trace or name in keep:
                    cls = getattr(importlib.import_module(mod_name), cls_name)
                    saved.append((cls, attr, cls.__dict__[attr]))
                    setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def fired(self) -> set[str]:
        return set(self.names)

    def table(self):
        """Span arrays: names, durations and self times, in seconds."""
        names = np.array(self.names)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=int)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return names, dur, dur - child


def solve_counters(solves: list[Solve], planner: str) -> dict:
    """Counts from each returned SolveInfo; they repeat exactly per seed."""
    mine = [s for s in solves if s.planner == planner]
    infos = [s.result.info for s in mine]
    n = len(infos)
    out = {f"{planner}.solves": (n, "count")}
    stops = dict.fromkeys(STOP_NAMES, 0)
    escalated = 0
    margins = []
    for s, info in zip(mine, infos):
        stops[STOP_REASONS.get(info.message, "other")] += 1
        if info.regularization > _config(s).regularization_init:
            escalated += 1
        margins.extend(v for pair in info.log_range_margins for v in pair)
    out[f"{planner}.iters_mean"] = (
        float(np.mean([i.iterations for i in infos])) if n else 0.0, "count")
    out[f"{planner}.converged_frac"] = (
        sum(i.converged for i in infos) / n if n else 0.0, "1")
    out[f"{planner}.reg_escalated_frac"] = (escalated / n if n else 0.0, "1")
    # 0 when the planner never solved; the .solves count is the base
    out[f"{planner}.min_margin"] = (min(margins) if margins else 0.0, "1")
    for reason in STOP_NAMES:
        out[f"{planner}.stop.{reason}"] = (stops[reason], "count")
    return out


def _config(s: Solve):
    if s.config is not None:
        return s.config
    return importlib.import_module("cilqr_drive.ilqr").SolverConfig()


def plan_cost(s: Solve) -> float:
    """total_cost of the returned plan at the final barrier sharpness."""
    ilqr = importlib.import_module("cilqr_drive.ilqr")
    return ilqr.total_cost(s.result.trajectory, s.spec,
                           t_scale=_config(s).barrier_t_max)


def min_margin(s: Solve) -> float:
    pairs = s.result.info.log_range_margins
    return min((v for pair in pairs for v in pair), default=np.inf)


def layer_metrics(rec: Recorder, sim_s: float) -> dict:
    """Per-layer timings from the spans of one traced run.

    sim_s is the simulated time the run covered (0 for the cold batch).
    Layers that did no work on a workload report 0; their call count,
    also reported, is the base.
    """
    names, dur, self_t = rec.table()

    def sel(name):
        return names == name

    def mean_ms(mask, values=dur):
        return float(np.mean(values[mask])) * 1e3 if mask.any() else 0.0

    def pct_ms(mask, q):
        return float(np.percentile(dur[mask], q)) * 1e3 if mask.any() else 0.0

    out = {}
    for planner in ("lateral", "longitudinal"):
        solve = sel(f"{planner}.solve")
        out[f"{planner}.solve_ms_p50"] = (pct_ms(solve, 50), "ms")
        out[f"{planner}.solve_ms_p95"] = (pct_ms(solve, 95), "ms")
        out[f"{planner}.build_ms_mean"] = (
            mean_ms(sel(f"{planner}.plan"), self_t), "ms")

    solves = sel("lateral.solve") | sel("longitudinal.solve")
    backward = sel("ilqr.backward_pass")
    n_solves = int(solves.sum())
    per_solve = 1.0 / n_solves if n_solves else 0.0
    out["ilqr.backward_ms_per_solve"] = (
        float(dur[backward].sum()) * 1e3 * per_solve, "ms")
    out["ilqr.backward_calls_per_solve"] = (
        float(backward.sum()) * per_solve, "count")
    out["ilqr.search_ms_per_solve"] = (
        float(self_t[solves].sum()) * 1e3 * per_solve, "ms")

    observe, correction = sel("lanes.observe"), sel("lanes.correction")
    n_vpc = int(correction.sum())
    out["lanes.vpc_ms_mean"] = (
        float(dur[observe | correction].sum()) * 1e3 / n_vpc
        if n_vpc else 0.0, "ms")
    out["lanes.fit_ms_mean"] = (mean_ms(sel("lanes.fit")), "ms")
    out["lanes.fit_none_frac"] = (
        rec.fits_none / rec.fits if rec.fits else 0.0, "1")

    perceive = sel("sim.sensors.perceive")
    out["sim.sensors.perceive_ms_mean"] = (mean_ms(perceive), "ms")
    out["sim.sensors.perceive_ms_p95"] = (pct_ms(perceive, 95), "ms")
    out["sim.sensors.radar_us_mean"] = (
        mean_ms(sel("sim.sensors.radar")) * 1e3, "us")
    out["sim.plant.step_us_mean"] = (mean_ms(sel("sim.plant.step")) * 1e3,
                                     "us")
    loop = sel("sim.scenario.run")
    out["sim.scenario.loop_ms_per_sim_s"] = (
        float(self_t[loop].sum()) * 1e3 / sim_s if sim_s else 0.0, "ms")
    out["sim.scenario.metrics_ms"] = (mean_ms(sel("sim.scenario.metrics")),
                                      "ms")
    out["sim.scenario.to_csv_ms"] = (mean_ms(sel("sim.scenario.to_csv")),
                                     "ms")
    return out
