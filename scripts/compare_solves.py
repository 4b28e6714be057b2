"""Re-solve one workload's recorded solve inputs under two source trees.

    python3 scripts/compare_solves.py --base DIR [--head DIR] \\
        --workload NAME [--seed N]

DIR is a checkout of the repository (it holds src/ and bench/); --head
defaults to the checkout this script is in.  Each tree runs the workload
once (its own bench/run.py, the first repeat of a closed loop or the
scored prefix of cold_solves) with a spy on the planners' `solve`, which
records every solve's problem, warm start and config as plain arrays.
Both trees then re-solve both recordings, each in its own process with its
own `cilqr_drive`: the problems are built anew from their public fields,
and chunks of CHUNK solves are timed in turn on base and head, REPEATS
times, the repeats alternating which goes first.  Each repeat solves a
chunk built anew, untimed, so no timed solve is answered from solve's memo
of an earlier repeat.  Per planner it prints
how many solves differ in stop reason (with the transitions) or
iteration count, the largest relative cost and control differences (over
the whole plan, and over its first control, the only one a planner
applies), and head / base for the sum over chunks of each chunk's minimum
solve time.  A second line says which side is cheaper: how many solves
cost less and more on head, and the median and extremes of the signed
relative cost difference (head - base) / |base|.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in the spawned workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("lanekeep_turn", "follow", "cold_solves")
SOLVERS = (("cilqr_drive.lateral", "lateral"),
           ("cilqr_drive.longitudinal", "longitudinal"))
CHUNK, REPEATS = 50, 5


def _plain(spec, warm_start, config) -> dict:
    """A solve's inputs as arrays and numbers, readable by any tree."""
    def terms(ts):
        return [dict(kind=t.kind.value, sel_x=np.array(t.sel_x),
                     sel_u=np.array(t.sel_u), offset=t.offset, lower=t.lower,
                     upper=t.upper, q1=t.q1, q2=t.q2) for t in ts]

    def cost(c):
        return dict(Q=np.array(c.Q), R=np.array(c.R), x_ref=np.array(c.x_ref))

    d = spec.dynamics
    return dict(
        dynamics=dict(A=np.array(d.A), B=np.array(d.B),
                      C=None if d.C is None else np.array(d.C),
                      w=None if d.w is None else np.array(d.w)),
        horizon=spec.horizon, cost=cost(spec.cost),
        terminal_cost=cost(spec.terminal_cost), x0=np.array(spec.x0),
        barriers=terms(spec.barriers),
        terminal_barriers=terms(spec.terminal_barriers),
        warm_start=None if warm_start is None else np.array(warm_start),
        config=None if config is None else dataclasses.asdict(config))


def _record(bench, workload: str, seed: int) -> list:
    """(planner, inputs) of every solve of one run of the workload."""
    with tempfile.TemporaryDirectory() as tmp:
        if workload == "cold_solves":
            wl = bench.ColdSolves(seed)
            go = lambda rec: wl.run(rec, 0.0, bench.COLD_SCORED,  # noqa: E731
                                    bench.COLD_SCORED)
        else:
            wl = bench.ClosedLoop(workload, seed, Path(tmp) / "run.csv")
            go = wl.run
        inputs, saved = [], []
        for mod_name, planner in SOLVERS:
            mod = importlib.import_module(mod_name)
            real = mod.solve

            def spy(spec, warm_start=None, config=None, _real=real,
                    _planner=planner):
                inputs.append((_planner, _plain(spec, warm_start, config)))
                return _real(spec, warm_start=warm_start, config=config)

            saved.append((mod, real))
            mod.solve = spy
        try:
            out = go(bench.Recorder(False))
        finally:
            for mod, real in saved:
                mod.solve = real
    if out.get("error") or out.get("failed"):
        raise RuntimeError(f"{workload} failed while recording")
    return inputs


def _build(ilqr, p: dict):
    """The problem, warm start and config of a recording, in this tree."""
    terms = [[ilqr.BarrierTerm(ilqr.BarrierKind(t.pop("kind")), **t)
              for t in (dict(t) for t in p[key])]
             for key in ("barriers", "terminal_barriers")]
    spec = ilqr.ProblemSpec(
        dynamics=ilqr.AffineDynamics(**p["dynamics"]), horizon=p["horizon"],
        cost=ilqr.QuadraticCost(**p["cost"]),
        terminal_cost=ilqr.QuadraticCost(**p["terminal_cost"]), x0=p["x0"],
        barriers=terms[0], terminal_barriers=terms[1])
    config = None if p["config"] is None else ilqr.SolverConfig(**p["config"])
    return spec, p["warm_start"], config


def _timed(ilqr, plain: list, keep: bool):
    """The wall time of solving a chunk of recordings, built anew (untimed)
    so that every solve computes, and the results if keep."""
    chunk = [_build(ilqr, p) for p in plain]
    t0 = time.perf_counter()
    results = [ilqr.solve(s, warm_start=w, config=c) for s, w, c in chunk]
    elapsed = time.perf_counter() - t0
    return elapsed, ([(r.info.message, r.info.iterations, r.info.cost,
                       r.trajectory.controls) for r in results]
                     if keep else None)


def _worker(root: str, conn) -> None:
    """Serve one tree: record a workload, load a chunk, time a chunk."""
    sys.path[:0] = [str(Path(root) / "bench"), str(Path(root) / "src")]
    bench = importlib.import_module("run")
    ilqr = importlib.import_module("cilqr_drive.ilqr")
    plain = []
    while True:
        cmd, arg = conn.recv()
        if cmd == "record":
            conn.send(_record(bench, *arg))
        elif cmd == "load":
            plain = arg
            conn.send(None)
        elif cmd == "time":
            conn.send(_timed(ilqr, plain, arg))
        else:
            return


def _ask(conn, cmd, arg=None):
    conn.send((cmd, arg))
    return conn.recv()


def compare(base: Path, head: Path, workload: str, seed: int) -> None:
    ctx = multiprocessing.get_context("spawn")
    conns, procs = [], []
    for root in (base, head):
        mine, theirs = ctx.Pipe()
        proc = ctx.Process(target=_worker, args=(str(root), theirs))
        proc.start()
        conns.append(mine)
        procs.append(proc)
    try:
        recorded = [(name, _ask(conn, "record", (workload, seed)))
                    for name, conn in zip(("base", "head"), conns)]
        print(f"# {workload} seed {seed}: base {base}, head {head}; "
              f"{CHUNK} solves a chunk, {REPEATS} repeats")
        for name, inputs in recorded:
            by_planner = collections.defaultdict(list)
            for planner, p in inputs:
                by_planner[planner].append(p)
            for planner, problems in sorted(by_planner.items()):
                _report(conns, f"{planner}, recorded by {name}", problems)
    finally:
        for conn in conns:
            conn.send(("stop", None))
        for proc in procs:
            proc.join(timeout=60)


def _report(conns, label: str, problems: list) -> None:
    best = np.zeros(2)
    got = [[], []]
    for c0 in range(0, len(problems), CHUNK):
        part = problems[c0:c0 + CHUNK]
        for conn in conns:
            _ask(conn, "load", part)
        times = np.full(2, np.inf)
        for r in range(REPEATS):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                elapsed, results = _ask(conns[side], "time", r == 0)
                times[side] = min(times[side], elapsed)
                if results is not None:
                    got[side].extend(results)
        best += times
    stops = collections.Counter()
    iters = ctrl = first = 0.0
    signed = []
    for (ma, ia, ca, ua), (mb, ib, cb, ub) in zip(*got):
        if ma != mb:
            stops[(ma, mb)] += 1
        iters += ia != ib
        signed.append((cb - ca) / max(abs(ca), 1e-300))
        ctrl = max(ctrl, float(np.max(np.abs(ub - ua))))
        first = max(first, float(np.max(np.abs(ub[0] - ua[0]))))
    signed = np.array(signed)
    print(f"{label}: {len(problems)} solves; stop reasons differ on "
          f"{sum(stops.values())}, iterations on {int(iters)}; largest "
          f"relative cost difference {np.abs(signed).max():.3g}, control "
          f"difference {ctrl:.3g} (first control {first:.3g}); solve time "
          f"head / base {best[1] / best[0]:.3f} "
          f"({best[1]:.3f} / {best[0]:.3f} s)")
    print(f"    head cost lower on {int((signed < 0).sum())}, higher on "
          f"{int((signed > 0).sum())}; signed relative difference median "
          f"{np.median(signed):.3g}, min {signed.min():.3g}, max "
          f"{signed.max():.3g}")
    for (ma, mb), count in stops.most_common():
        print(f"    {count:5d}  {ma!r} -> {mb!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    compare(args.base.resolve(), args.head.resolve(), args.workload,
            args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
