"""Command-line runner: execute scenarios, compare controllers, time solvers.

Subcommands
    run        execute one configured scenario, write CSV/metrics/plot script
    compare    run one config under each controller, report ratios
    benchmark  re-solve recorded closed-loop states and report solve times

Exit codes: 0 run complete, 1 configuration error, 2 the vehicle left the
road or collided.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_run_config
from .lateral import LateralPlanner, LateralState
from .longitudinal import LeadMeasurement, LongitudinalPlanner
from .sim import SimLog, compute_metrics, run_scenario
from .sim.scenario import CONTROLLERS

_REFERENCE_MAX_OFFSET_RATIO = 1.36   # plain vs preview-corrected steering


def _execute(cfg: RunConfig) -> SimLog:
    return run_scenario(cfg.spec, controller=cfg.controller,
                        longitudinal=cfg.longitudinal,
                        vehicle=cfg.vehicle,
                        lateral_tuning=cfg.lateral,
                        long_tuning=cfg.long_tuning,
                        vpc_config=cfg.vpc)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_metrics(metrics: dict, out_dir: Path, name: str) -> str:
    """Write machine-readable and human-readable metric files."""
    payload = {k: _json_safe(v) for k, v in metrics.items()}
    (out_dir / f"{name}_metrics.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    width = max(len(k) for k in metrics)
    lines = [f"{k.ljust(width)}  {v}" for k, v in sorted(metrics.items())]
    text = "\n".join(lines) + "\n"
    (out_dir / f"{name}_metrics.txt").write_text(text)
    return text


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Render theta, offset, speed, and gap against distance from a run's CSV."""

import csv
from pathlib import Path

import matplotlib.pyplot as plt

path = Path(__file__).with_name({csv_name!r})
rows = list(csv.DictReader(path.open()))
s = [float(r["s_m"]) for r in rows]
series = [
    ("theta_rad", "heading error [rad]"),
    ("delta_m", "lateral offset [m]"),
    ("v_mps", "speed [m/s]"),
    ("D_m", "gap to lead [m]"),
]
fig, axes = plt.subplots(len(series), 1, sharex=True, figsize=(9, 10))
for ax, (col, label) in zip(axes, series):
    ax.plot(s, [float(r[col]) for r in rows], linewidth=0.8)
    ax.set_ylabel(label)
    ax.grid(True, alpha=0.3)
axes[-1].set_xlabel("distance along track [m]")
fig.suptitle({name!r})
fig.tight_layout()
out = Path(__file__).with_name({png_name!r})
fig.savefig(out, dpi=150)
print(f"wrote {{out}}")
'''


def _write_plot_script(out_dir: Path, name: str) -> None:
    # the names go in as Python literals, so any file name gives a script
    script = _PLOT_TEMPLATE.format(csv_name=f"{name}.csv", name=name,
                                   png_name=f"{name}.png")
    (out_dir / f"plot_{name}.py").write_text(script)


def _cmd_run(args) -> int:
    cfg = load_run_config(args.config, tuple(args.overrides),
                          seed=args.seed, controller=args.controller)
    log = _execute(cfg)
    metrics = compute_metrics(log)
    metrics["seed"] = cfg.spec.seed

    name = cfg.spec.name or Path(args.config).stem
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.to_csv(out_dir / f"{name}.csv")
    text = _write_metrics(metrics, out_dir, name)
    _write_plot_script(out_dir, name)

    sys.stdout.write(text)
    sys.stdout.write(f"artifacts in {out_dir}/\n")
    if log.terminal_event in ("collision", "off_track"):
        sys.stderr.write(f"run ended early: {log.terminal_event}\n")
        return 2
    return 0


def _cmd_compare(args) -> int:
    # one config under every controller: the pair differs in nothing else
    cfg = load_run_config(args.config, tuple(args.overrides))
    rows = [(c, compute_metrics(_execute(replace(cfg, controller=c))))
            for c in CONTROLLERS]

    names = [r[0] for r in rows]
    fields = ["delta_max_abs_m", "delta_max_abs_kmax_m", "delta_mae_m",
              "theta_mae_rad", "terminal_event"]
    def cell(v) -> str:
        return f"{v:.6g}" if isinstance(v, float) else str(v)

    width = max(len(f) for f in fields) + 2
    lines = [" " * width + "  ".join(f"{n:>14}" for n in names)]
    for f in fields:
        cells = "  ".join(f"{cell(r[1][f]):>14}" for r in rows)
        lines.append(f"{f.ljust(width)}{cells}")
    # NaN (null in the JSON) when the second run never left the centerline
    a, b = (m["delta_max_abs_m"] for _, m in rows)
    ratio = a / b if b else math.nan
    lines.append(f"max offset ratio ({names[0]} / {names[1]}): {ratio:.4f}"
                 f"  (reference controller-pair ratio: "
                 f"{_REFERENCE_MAX_OFFSET_RATIO})")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "compare.txt").write_text(report)
    payload = {
        "controllers": names,
        "metrics": {n: {k: _json_safe(v) for k, v in m.items()}
                    for n, m in rows},
        "max_offset_ratio": _json_safe(ratio),
        "reference_ratio": _REFERENCE_MAX_OFFSET_RATIO,
    }
    (out_dir / "compare.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _replay_rows(log: SimLog, cfg: RunConfig, n_states: int, have=None):
    """Every k-th planner-cadence row (where `have`), k = max(1, rows //
    n_states), so long logs give states from every section, turns included;
    and the mean logged time between the chosen rows."""
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    rates = cfg.spec.rates
    rows = np.arange(0, len(log), -(-rates.planner_us // rates.plant_us))
    if have is not None:
        rows = rows[have[rows]]
    idx = rows[::max(1, rows.size // n_states)]
    t = log.columns["time_s"][idx]
    period = np.diff(t).mean() if idx.size > 1 else rates.planner_us * 1e-6
    return idx, float(period)


def replay_lateral_timing(log: SimLog, cfg: RunConfig,
                          n_states: int = 1000) -> dict:
    """Re-solve recorded states through a fresh steering planner.

    States are strided evenly over the log and replayed in order, each
    warm-started from the plan before it; the first solve is cold and is
    included in the statistics.
    """
    idx, _ = _replay_rows(log, cfg, n_states)
    d, th, v = (log.columns[k] for k in ("delta_m", "theta_rad", "v_mps"))
    calls = [(LateralState(delta_lat=float(d[i]), theta=float(th[i])),
              float(v[i])) for i in idx]
    return _replay_timing("lateral", LateralPlanner(cfg.vehicle, cfg.lateral),
                          calls, "worst_cmd",
                          lambda cmd, _result: abs(cmd.steer_cmd))


def replay_longitudinal_timing(log: SimLog, cfg: RunConfig,
                               n_states: int = 1000) -> dict:
    """Re-solve recorded car-following states; see replay_lateral_timing.
    The planner's period is the logged time between replayed states."""
    idx, period = _replay_rows(log, cfg, n_states,
                               have=np.isfinite(log.columns["D_m"]))
    planner = LongitudinalPlanner(cruise_speed=cfg.spec.cruise_speed,
                                  tuning=cfg.long_tuning, period=period)
    v, D, vl = (log.columns[k] for k in ("v_mps", "D_m", "v_l_mps"))
    calls = [(float(v[i]), LeadMeasurement(v_l=float(vl[i]), D=float(D[i])))
             for i in idx]
    return _replay_timing(
        "longitudinal", planner, calls, "worst_jerk",
        lambda _cmd, result: float(np.max(np.abs(result.trajectory.controls))))


def _replay_timing(name: str, planner, calls: list, worst_key: str,
                   worst) -> dict:
    """Time planner.plan(*args) for each args in calls, in order.

    Iterations, the smallest log-range margin and the largest
    worst(cmd, result) come from the cycles that solved (a result that
    is not None); the time statistics are NaN (null in the JSON) when
    there were no calls.
    """
    times, iters = [], []
    peak, min_margin = 0.0, math.inf
    for args in calls:
        t0 = time.perf_counter()
        cmd, result = planner.plan(*args)
        times.append((time.perf_counter() - t0) * 1e3)
        if result is not None:
            iters.append(result.info.iterations)
            peak = max(peak, worst(cmd, result))
            for lo, hi in result.info.log_range_margins:
                min_margin = min(min_margin, lo, hi)
    arr = np.array(times) if times else np.full(1, math.nan)
    return {
        "planner": name,
        "mean_ms": float(np.mean(arr)),
        "median_ms": float(np.median(arr)),
        "p95_ms": float(np.percentile(arr, 95.0)),
        "max_ms": float(np.max(arr)),
        "mean_iterations": float(np.mean(iters)) if iters else math.nan,
        "n_solves": len(calls),
        worst_key: peak,
        "min_margin": min_margin,
    }


def _cmd_benchmark(args) -> int:
    if args.states < 1:
        raise ConfigError(f"--states must be at least 1, got {args.states}")
    cfg = load_run_config(args.config, tuple(args.overrides),
                          seed=args.seed, controller=args.controller)
    log = _execute(cfg)
    reports = [replay_lateral_timing(log, cfg, args.states)]
    if np.isfinite(log.columns["D_m"]).any():
        reports.append(replay_longitudinal_timing(log, cfg, args.states))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for rep in reports:
        lines.append(f"{rep['planner']}: mean {rep['mean_ms']:.3f} ms, "
                     f"median {rep['median_ms']:.3f} ms, "
                     f"p95 {rep['p95_ms']:.3f} ms, "
                     f"max {rep['max_ms']:.3f} ms over "
                     f"{rep['n_solves']} solves, "
                     f"{rep['mean_iterations']:.2f} iterations mean")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    payload = [{k: _json_safe(v) for k, v in rep.items()} for rep in reports]
    (out_dir / "benchmark.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="out",
                        help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override scenario.seed")
    parser.add_argument("--controller", default=None,
                        help="override scenario.controller")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override any config key (repeatable)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cilqr-drive",
        description="Closed-loop lane keeping and car following runner.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured scenario")
    p_run.add_argument("--config", required=True)
    _add_common(p_run)

    p_cmp = sub.add_parser("compare",
                           help="run one config under each controller")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", default="out")
    p_cmp.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE")

    p_bench = sub.add_parser("benchmark",
                             help="time the solvers on recorded states")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--states", type=int, default=1000,
                         help="states to replay per planner")
    _add_common(p_bench)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_benchmark(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
