"""Run the preset closed loops under two source trees and compare them.

    python3 scripts/compare_runs.py --base DIR [--head DIR] [--seeds 0-3] \\
        [--configs NAME ...] [--set KEY=VALUE ...]

DIR is a checkout of the repository (it holds src/ and configs/); --head
defaults to the checkout this script is in.  Each config (a name from
configs/, all of them by default) runs at each seed under each tree with
that tree's own configs/<name>.cfg, through its own `cilqr-drive run`, in
its own process; base and head run side by side.  Each --set KEY=VALUE
(a config override) is passed unchanged to both runs.  Seeds are a range
"a-b" or a comma list.  For each config and seed it prints both CSVs'
sha256 and, for each tracking metric, the base value, the head value and
the relative change (head - base) / |base|; a line whose two sides match
reads "equal", and a metric that is NaN on one side only reads as an
infinite change.
A last block gives each metric's largest relative change over the seeds.
The exit code is 1 if a run did not write its log, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("delta_max_abs_kmax_m", "delta_mae_m", "d_mae_m", "v_mae_mps",
           "gap_min_m")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _start(root: Path, config: str, seed: int, out: Path,
           settings: list[str]):
    """One tree's run of a config at a seed, started in its own process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "cilqr_drive.cli", "run",
           "--config", str(root / "configs" / f"{config}.cfg"),
           "--seed", str(seed), "--out", str(out)]
    for setting in settings:
        cmd += ["--set", setting]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def _collect(proc, out: Path):
    """(csv sha256, metrics) of a finished run, or None if it wrote none."""
    err = proc.communicate()[1]
    csvs = sorted(out.glob("*.csv"))
    if len(csvs) != 1:
        sys.stderr.write(f"run in {out} wrote no log "
                         f"(exit {proc.returncode}):\n{err}")
        return None
    metrics = json.loads(csvs[0].with_name(
        csvs[0].stem + "_metrics.json").read_text())
    return hashlib.sha256(csvs[0].read_bytes()).hexdigest(), metrics


def _change(a, b) -> float:
    """Relative change from a to b; NaN (JSON null) on both sides is 0.

    A change with no finite ratio (from 0, to or from NaN on one side
    only, from an infinity) is infinite, so it never reads as equal.
    """
    a = math.nan if a is None else a
    b = math.nan if b is None else b
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    change = (b - a) / abs(a) if a else math.inf
    return math.inf if math.isnan(change) else change


def _verdict(change: float) -> str:
    return "equal" if change == 0.0 else f"{change:+.3g}"


def _cell(value) -> str:
    return "nan" if value is None else f"{value:.10g}"


def _report(config: str, seed: int, runs, largest: dict) -> list[str]:
    """Lines comparing one config's two runs at a seed.

    runs holds each side's (csv sha256, metrics), None for a run that
    wrote no log; largest keeps each (config, metric)'s largest change.
    """
    lines = [f"{config} seed {seed}"]
    if None in runs:
        return lines + ["  run failed"]
    (hash_a, ma), (hash_b, mb) = runs
    same = "equal" if hash_a == hash_b else "differ"
    lines.append(f"  csv sha256  base {hash_a[:12]}…  "
                 f"head {hash_b[:12]}…  {same}")
    for name in METRICS:
        a, b = ma.get(name), mb.get(name)
        change = _change(a, b)
        if abs(change) > abs(largest[config, name]):
            largest[config, name] = change
        lines.append(f"  {name:20s}  base {_cell(a):>14s}  "
                     f"head {_cell(b):>14s}  {_verdict(change)}")
    return lines


def _summary(largest: dict) -> list[str]:
    return ["largest relative change over the seeds"] + [
        f"  {config} {name:20s}  {_verdict(change)}"
        for (config, name), change in largest.items()]


def compare(base: Path, head: Path, configs: list[str],
            seeds: list[int], settings: list[str]) -> int:
    print(f"# base {base}, head {head}"
          + "".join(f", --set {s}" for s in settings))
    largest = {(c, m): 0.0 for c in configs for m in METRICS}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for config in configs:
            for seed in seeds:
                outs = [Path(tmp) / f"{side}-{config}-{seed}"
                        for side in ("base", "head")]
                procs = [_start(root, config, seed, out, settings)
                         for root, out in zip((base, head), outs)]
                runs = [_collect(p, out) for p, out in zip(procs, outs)]
                failed |= None in runs
                print("\n".join(_report(config, seed, runs, largest)))
    print("\n".join(_summary(largest)))
    return 1 if failed else 0


def main(argv=None) -> int:
    head = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, default=head)
    parser.add_argument("--seeds", default="0-3")
    parser.add_argument("--configs", nargs="+", default=sorted(
        p.stem for p in (head / "configs").glob("*.cfg")))
    parser.add_argument("--set", dest="settings", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="config override passed to both runs")
    args = parser.parse_args(argv)
    return compare(args.base.resolve(), args.head.resolve(),
                   args.configs, _seeds(args.seeds), args.settings)


if __name__ == "__main__":
    sys.exit(main())
