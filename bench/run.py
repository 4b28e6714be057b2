"""cilqr-drive benchmark: two closed loops and a cold-solve batch.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src.  With
--trace 0 the run is timed untraced and prints the end-to-end metrics; with
--trace 1 it runs each workload untraced and then traced, checks that both
give the same outputs, and prints the per-layer metrics.  End-to-end
times are reported at the reference speed of bench/speed.py, which
cancels the drift of a shared host.  Human-readable lines come first;
the last line of standard output is one JSON object.
See bench/README.md for the workloads, the metrics and why they were
chosen.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one process, one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from instrument import (Recorder, layer_metrics, min_margin,  # noqa: E402
                        plan_cost, solve_counters)
from speed import Speedometer, paced  # noqa: E402

SETUP_REPEATS = 11
SETUP_SAMPLES = 8       # kernel samples after each set-up
COLD_BLOCK = 16         # cold cycles that share one speed estimate
PRESET_NOISE = dict(sigma_theta=0.005, sigma_delta=0.03, sigma_lane=0.05)
COLD_POOL = 4096        # cold problems drawn per seed; a run uses a prefix
COLD_SCORED = 128       # prefix every run solves; plan costs cover exactly it
COLD_RECHECK = 12       # prefix solved again to check that plans repeat
OK_TERMINALS = ("time_limit", "finish")
TRACKING = ("delta_max_abs_m", "delta_mae_m", "d_mae_m", "v_mae_mps",
            "gap_min_m")


def fresh_import():
    """Import cilqr_drive from source as a first import would."""
    for name in [n for n in sys.modules
                 if n == "cilqr_drive" or n.startswith("cilqr_drive.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cilqr_drive")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "cilqr_drive":
        raise ImportError(f"cilqr_drive imported from {pkg.__file__}, "
                          f"not from {ROOT / 'src'}")
    return importlib.import_module("cilqr_drive.sim.scenario")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class ClosedLoop:
    """One scored closed-loop run: run_scenario, compute_metrics, to_csv."""

    def __init__(self, name: str, seed: int, csv_path: Path) -> None:
        sc = fresh_import()
        sensors = importlib.import_module("cilqr_drive.sim.sensors")
        noise = sensors.NoiseConfig(**PRESET_NOISE)
        if name == "lanekeep_turn":
            # the straight before trackA's first 180-degree turn (first
            # clothoid at s = 1286.8 m) through the turn exit at 1421.5 m
            self.spec = sc.ScenarioSpec(track="trackA", duration_s=12.0,
                                        start_s=1220.0,
                                        cruise_speed=76.0 / 3.6,
                                        noise=noise, seed=seed, name=name)
            self.controller, self.longitudinal = "vpc-cilqr", False
            self.repeat_s = 10.0    # a repeat's wall time, rounded up
            self.expected = {"sim.sensors.perceive", "sim.plant.step",
                             "lateral.plan", "lateral.solve",
                             "longitudinal.plan", "ilqr.backward_pass",
                             "lanes.observe", "lanes.correction",
                             "lanes.fit"}
        else:
            # trackB car-following preset from t = 0: engage, approach
            spec = sc.preset_trackB_following(seed)
            spec.duration_s = 6.0
            spec.metrics_t_range = None
            spec.name = name
            self.spec = spec
            self.controller, self.longitudinal = "cilqr", True
            self.repeat_s = 15.0
            self.expected = {"sim.sensors.perceive", "sim.sensors.radar",
                             "sim.plant.step", "lateral.plan",
                             "lateral.solve", "longitudinal.plan",
                             "longitudinal.solve", "ilqr.backward_pass"}
        self.expected |= {"sim.scenario.run", "sim.scenario.metrics",
                          "sim.scenario.to_csv"}
        self.sc = sc
        self.csv_path = csv_path
        self.period_s = self.spec.rates.planner_us * 1e-6

    def warm_up(self) -> None:
        spec = self.sc.ScenarioSpec(**{**vars(self.spec), "duration_s": 0.3})
        self.sc.run_scenario(spec, self.controller,
                             longitudinal=self.longitudinal)

    def run(self, rec: Recorder, pace: Speedometer | None = None) -> dict:
        """One scored run; with pace, a kernel sample precedes each frame."""
        gc.collect()
        log, error, scores = None, None, {}
        n0 = len(pace.samples) if pace else 0
        with rec.installed(), (paced(self.sc, "perceive", pace) if pace
                               else nullcontext()):
            t0 = time.perf_counter()
            try:
                with rec.span("sim.scenario.run"):
                    log = self.sc.run_scenario(
                        self.spec, self.controller,
                        longitudinal=self.longitudinal, log_solver_time=True)
                with rec.span("sim.scenario.metrics"):
                    scores = self.sc.compute_metrics(log)
                with rec.span("sim.scenario.to_csv"):
                    log.to_csv(str(self.csv_path))
            except Exception:  # a raise fails the run; it is reported
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
        scale = 1.0
        if pace and len(pace.samples) > n0:   # none if it raised early
            wall -= pace.spent(n0)
            scale = pace.scale(n0)
        ran = rec.cycle + 1
        nominal = int(round(self.spec.duration_s / self.period_s))
        terminal = log.terminal_event if log is not None else "raised"
        complete = error is None and terminal in OK_TERMINALS
        attempted = ran if complete else max(nominal, ran)
        bad_cycles = {s.cycle for s in rec.solves if min_margin(s) <= 0.0}
        failed = len(bad_cycles)
        if not complete:
            failed += attempted - ran + (error is not None)
        out = {"wall": wall, "scale": scale, "error": error,
               "terminal": terminal,
               "attempted": attempted, "failed": min(failed, attempted),
               "log": log, "scores": scores}
        if log is not None:
            c = log.columns
            out["sim_s"] = float(c["time_s"][-1])
            t = c["solver_time_ms"]
            # one sample per planner cycle: the column holds the latest
            # cycle's time until the next cycle overwrites it
            out["cycle_ms"] = t[np.diff(t, prepend=0.0) != 0.0]
            out["key"] = ([c[k] for k in c if k != "solver_time_ms"],
                          log.events, terminal)
        return out

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        """Logs agree in every column but the wall-clock one."""
        if a["log"] is None or b["log"] is None:
            return False
        (ca, ea, ta), (cb, eb, tb) = a["key"], b["key"]
        return (ta == tb and ea == eb and len(ca) == len(cb)
                and all(np.array_equal(x, y, equal_nan=True)
                        for x, y in zip(ca, cb)))


class ColdSolves:
    """Independent planner calls right after reset(), no simulator.

    Problem i is a lateral state with its speed plus a following state;
    a cold cycle solves both, as the stack does on its first cycle.
    """

    def __init__(self, seed: int) -> None:
        fresh_import()
        lat = importlib.import_module("cilqr_drive.lateral")
        lon = importlib.import_module("cilqr_drive.longitudinal")
        rates = importlib.import_module("cilqr_drive.sim.sensors").SimRates()
        self.period_s = rates.planner_us * 1e-6
        kph = 1.0 / 3.6
        lo = np.array([-1.0, -0.05, 40.0 * kph, 20.0, 50.0 * kph, -10.0 * kph])
        hi = np.array([1.0, 0.05, 110.0 * kph, 110.0, 100.0 * kph, 10.0 * kph])
        # Latin hypercube in blocks of COLD_SCORED: every block covers each
        # range evenly, so plan costs (set almost wholly by the drawn gap)
        # and solve times vary little from seed to seed, while no value
        # repeats
        rng = np.random.default_rng(seed)
        n = COLD_SCORED
        u = np.vstack([(rng.permuted(np.tile(np.arange(n), (lo.size, 1)),
                                     axis=1).T + rng.random((n, lo.size))) / n
                       for _ in range(COLD_POOL // n)])
        self.problems = []
        for d, th, v, gap, v_l, dv in lo + (hi - lo) * u:
            self.problems.append((lat.LateralState(delta_lat=d, theta=th), v,
                                  v_l + dv, lon.LeadMeasurement(v_l=v_l,
                                                                D=gap)))
        self.lat = lat.LateralPlanner()
        self.lon = lon.LongitudinalPlanner(cruise_speed=110.0 * kph,
                                           period=self.period_s)
        self.expected = {"lateral.plan", "lateral.solve",
                         "longitudinal.plan", "longitudinal.solve",
                         "ilqr.backward_pass"}

    def warm_up(self) -> None:
        # the last problems of the pool, which no run reaches
        for i in range(COLD_POOL - 2, COLD_POOL):
            self._cycle(i)

    def _cycle(self, i: int) -> None:
        state, v, v_e, lead = self.problems[i]
        self.lat.reset()
        self.lat.plan(state, v)
        self.lon.reset()
        self.lon.plan(v_e, lead)

    def run(self, rec: Recorder, seconds: float, lo: int, hi: int,
            pace: Speedometer | None = None) -> dict:
        """Solve problems in order: at least lo, at most hi, until seconds.

        With pace, a kernel sample follows each cycle, and each cycle's
        time is scaled by the speed of its block of COLD_BLOCK cycles.
        """
        gc.collect()
        times, errors = [], set()
        n0 = len(pace.samples) if pace else 0
        with rec.installed():
            t_start = time.perf_counter()
            i = 0
            while i < hi and (i < lo
                              or time.perf_counter() - t_start < seconds):
                t0 = time.perf_counter()
                try:
                    self._cycle(i)
                except Exception:  # a raise fails the cycle; it is reported
                    errors.add(i)
                    print(traceback.format_exc(), file=sys.stderr)
                times.append(time.perf_counter() - t0)
                if pace:
                    pace.sample()
                i += 1
            wall = time.perf_counter() - t_start
        bad = errors | {s.cycle for s in rec.solves if min_margin(s) <= 0.0}
        times = np.array(times)
        scale = np.ones_like(times)
        if pace:
            wall -= pace.spent(n0)
            for b in range(0, i, COLD_BLOCK):
                scale[b:b + COLD_BLOCK] = pace.scale(n0 + b,
                                                     n0 + b + COLD_BLOCK)
        return {"wall": wall, "attempted": i, "failed": len(bad),
                "cycle_ms": times * 1e3, "scale": scale}

    @staticmethod
    def plans(rec: Recorder, n: int) -> list:
        """The returned plans of cycles 0..n-1, for exact comparison."""
        out = []
        for s in rec.solves:
            if s.cycle < n:
                tr = s.result.trajectory
                out.append((s.planner, s.cycle, tr.states.tobytes(),
                            tr.controls.tobytes(), s.result.info.message,
                            s.result.info.iterations))
        return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, csv_path: Path):
    """The workload, and the median set-up time: wall and reference s."""
    times, wl, pace = [], None, Speedometer()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = (ColdSolves(seed) if workload == "cold_solves"
              else ClosedLoop(workload, seed, csv_path))
        times.append(time.perf_counter() - t0)
        for _ in range(SETUP_SAMPLES):
            pace.sample()
    wall = statistics.median(times)
    return wl, wall, wall * pace.scale()


def pct(values, q) -> float:
    return float(np.percentile(values, q))


def end_to_end(wl, args, checks: dict) -> tuple[dict, int, int]:
    metrics = {}
    pace = Speedometer()
    if isinstance(wl, ColdSolves):
        rec = Recorder(trace=False)
        res = wl.run(rec, args.seconds, COLD_SCORED, COLD_POOL, pace)
        again = Recorder(trace=False)
        wl.run(again, 0.0, COLD_RECHECK, COLD_RECHECK)
        checks["cold plans repeat exactly"] = (
            wl.plans(rec, COLD_RECHECK) == wl.plans(again, COLD_RECHECK))
        runs, scored = [res], [s for s in rec.solves
                               if s.cycle < COLD_SCORED]
        sim_s = res["attempted"] * wl.period_s
        cycle_ms = res["cycle_ms"] * res["scale"]
        rtf = sim_s / (cycle_ms.sum() * 1e-3)
        raw_rtf = sim_s / res["wall"]
        raw_ms = res["cycle_ms"]
        print(f"# cold cycles: {res['attempted']} in {res['wall']:.3f} s")
    else:
        # the repeat count depends on --seconds only, never on how fast a
        # repeat ran, so every run of a workload does the same work
        runs, scored = [], []
        for _ in range(max(2, int(args.seconds // wl.repeat_s))):
            rec = Recorder(trace=False)
            runs.append(wl.run(rec, pace))
            if not scored:
                scored = rec.solves
        for r in runs:
            if r["error"]:
                print(r["error"], file=sys.stderr)
        checks["terminal event is time_limit or finish"] = all(
            r["terminal"] in OK_TERMINALS for r in runs)
        checks["logs repeat exactly"] = all(
            wl.same(runs[0], r) for r in runs[1:])
        print(f"# scored runs: {len(runs)}, wall s: "
              + " ".join(f"{r['wall']:.3f}" for r in runs))
        done = [r for r in runs if r["log"] is not None]
        if not done:
            raise RuntimeError("no scored run completed")
        # tracking quality is deterministic per seed; printed, not bounded
        print("# tracking " + " ".join(
            f"{k}={v:.6g}" for k, v in done[0]["scores"].items()
            if k in TRACKING and math.isfinite(v)))
        rtf = statistics.median(r["sim_s"] / (r["wall"] * r["scale"])
                                for r in done)
        cycle_ms = np.concatenate([r["cycle_ms"] * r["scale"] for r in done])
        raw_rtf = statistics.median(r["sim_s"] / r["wall"] for r in done)
        raw_ms = np.concatenate([r["cycle_ms"] for r in done])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"# cycle samples: {cycle_ms.size}")
    print(f"# kernel samples: {len(pace.samples)}, median "
          f"{statistics.median(pace.samples) * 1e3:.4f} ms; at wall speed: "
          f"rtf {raw_rtf:.6g}, cycle_ms_p50 {pct(raw_ms, 50):.6g}, "
          f"cycle_ms_p95 {pct(raw_ms, 95):.6g}")
    metrics["rtf"] = (rtf, "s/s")
    metrics["cycle_ms_p50"] = (pct(cycle_ms, 50), "ms")
    metrics["cycle_ms_p95"] = (pct(cycle_ms, 95), "ms")
    metrics["ok_frac"] = (1.0 - failed / attempted, "1")
    # geometric mean: following costs span orders of magnitude
    metrics["plan_cost_gmean"] = (
        float(np.exp(np.mean(np.log([plan_cost(s) for s in scored])))), "1")
    return metrics, attempted, failed


def per_layer(wl, checks: dict) -> tuple[dict, int, int]:
    traced = Recorder(trace=True)
    if isinstance(wl, ColdSolves):
        plain = Recorder(trace=False)
        n = COLD_SCORED
        base = wl.run(plain, 0.0, n, n)
        res = wl.run(traced, 0.0, n, n)
        checks["traced plans equal untraced"] = (wl.plans(plain, n)
                                                 == wl.plans(traced, n))
        sim_s = 0.0
    else:
        base = wl.run(Recorder(trace=False))
        res = wl.run(traced)
        checks["traced log equals untraced"] = wl.same(base, res)
        checks["terminal event is time_limit or finish"] = all(
            r["terminal"] in OK_TERMINALS for r in (base, res))
        if base["log"] is None or res["log"] is None:
            raise RuntimeError("a scored run did not complete")
        sim_s = res["sim_s"]
    overhead = res["wall"] / base["wall"] - 1.0
    missing = sorted(wl.expected - traced.fired())
    checks["every expected span fired"] = not missing
    if missing:
        print(f"# spans that never fired: {missing}", file=sys.stderr)
    metrics = layer_metrics(traced, sim_s)
    cycles = traced.cycle + 1
    n_lon = len({s.cycle for s in traced.solves
                 if s.planner == "longitudinal"})
    for planner in ("lateral", "longitudinal"):
        metrics.update(solve_counters(traced.solves, planner))
        costs = [plan_cost(s) for s in traced.solves if s.planner == planner]
        metrics[f"{planner}.plan_cost_mean"] = (
            float(np.mean(costs)) if costs else 0.0, "1")
    metrics["cycles"] = (cycles, "count")
    metrics["longitudinal.following_frac"] = (
        n_lon / cycles if cycles else 0.0, "1")
    metrics["sim.scenario.deadline_miss_frac"] = (
        float(np.mean(base["cycle_ms"] > wl.period_s * 1e3)), "1")
    metrics["trace_overhead_frac"] = (overhead, "1")
    runs = (base, res)
    return (metrics, sum(r["attempted"] for r in runs),
            sum(r["failed"] for r in runs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lanekeep_turn", "follow", "cold_solves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    csv_path = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}.csv"
    try:
        wl, setup_wall, setup_s = measure_setup(args.workload, args.seed,
                                                csv_path)
        print(f"# setup wall s: {setup_wall:.6g}")
        env = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "python": platform.python_version(),
               "numpy": np.__version__,
               "nproc": len(os.sched_getaffinity(0)),
               "threads": os.environ["OMP_NUM_THREADS"]}
        print("# env " + json.dumps(env))
        wl.warm_up()
        checks: dict[str, bool] = {}
        if args.trace:
            metrics, attempted, failed = per_layer(wl, checks)
        else:
            metrics, attempted, failed = end_to_end(wl, args, checks)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    finally:
        csv_path.unlink(missing_ok=True)
        if not any(out_dir.iterdir()):
            out_dir.rmdir()
    checks["no operation failed"] = failed == 0
    for name, ok in checks.items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    result = {
        "correct": all(checks.values()),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v if isinstance(v, int) else float(v),
                        "unit": u} for k, (v, u) in metrics.items()},
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("# a metric is not finite", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
