"""The package's public names, and the README tables that name them."""

import ast
import fnmatch
import importlib
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cilqr_drive import ilqr
from cilqr_drive.config import _REGISTRY
from cilqr_drive.lateral import (LateralState, LateralTuning, VehicleParams,
                                 build_lateral_dynamics, build_lateral_problem)
from cilqr_drive.longitudinal import (LeadMeasurement, LongitudinalState,
                                      LongTuning, build_following_problem)

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("module", ["cilqr_drive", "cilqr_drive.sim"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_benchmark_hooks_resolve(monkeypatch):
    """Every name bench/instrument.py rebinds or calls exists in src/, so a
    rename or a deletion fails here rather than in a traced benchmark run."""
    path = ROOT / "bench" / "instrument.py"
    module_spec = importlib.util.spec_from_file_location("bench_instrument",
                                                         path)
    instrument = importlib.util.module_from_spec(module_spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, module_spec.name, instrument)
    module_spec.loader.exec_module(instrument)
    missing = [(mod, attr) for mod, attr, _ in instrument.FUNCTIONS
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    missing += [(mod, f"{cls}.{attr}")
                for mod, cls, attr, _ in instrument.METHODS
                if not callable(vars(getattr(importlib.import_module(mod),
                                             cls, object)).get(attr))]
    if not callable(getattr(importlib.import_module("cilqr_drive.ilqr"),
                            "total_cost", None)):
        missing.append(("cilqr_drive.ilqr", "total_cost"))
    assert missing == []


@pytest.fixture
def compare(monkeypatch):
    """scripts/compare_solves.py, loaded without starting a worker."""
    path = ROOT / "scripts" / "compare_solves.py"
    module_spec = importlib.util.spec_from_file_location("compare_solves",
                                                         path)
    module = importlib.util.module_from_spec(module_spec)
    # it pins the BLAS thread counts in os.environ when it loads
    monkeypatch.setattr(os, "environ", dict(os.environ))
    module_spec.loader.exec_module(module)
    return module


def test_compare_solves_rebuilds_a_recorded_solve_to_the_bit(compare):
    """scripts/compare_solves.py records a solve's inputs as plain arrays
    (_plain) and rebuilds them (_build); the rebuilt solve must equal the
    recorded one bit for bit, or the script would report differences that
    no tree made.  Both steering branches and the following problem, cold
    and warm; no worker process is started."""
    tuning = LateralTuning()
    dyn = build_lateral_dynamics(VehicleParams(), 20.0, tuning.dt)
    problems = [build_lateral_problem(LateralState(delta_lat=offset,
                                                   theta=0.02), dyn, tuning)
                for offset in (0.4, -0.3)]
    problems.append(build_following_problem(
        LongitudinalState(D=30.0, v=20.0, a=0.3),
        LeadMeasurement(v_l=18.0, D=30.0), LongTuning()))
    for spec in problems:
        plan = ilqr.solve(spec).trajectory.controls
        moved = spec.with_start(spec.x0 + 0.01)
        for problem, warm, config in ((spec, None, None),
                                      (moved, plan, ilqr.WARM_CONFIG)):
            want = ilqr.solve(problem, warm_start=warm, config=config)
            got = ilqr.solve(*compare._build(
                ilqr, compare._plain(problem, warm, config)))
            assert got.info == want.info
            for a, b in ((got.trajectory.states, want.trajectory.states),
                         (got.trajectory.controls,
                          want.trajectory.controls)):
                np.testing.assert_array_equal(a, b)


def test_compare_solves_times_solves_that_compute(compare, monkeypatch):
    """Every timed repeat of a chunk runs its solves: none is answered from
    solve's memo of the repeat before, which would time a copy."""
    tuning = LateralTuning()
    spec = build_lateral_problem(
        LateralState(delta_lat=0.4, theta=0.02),
        build_lateral_dynamics(VehicleParams(), 20.0, tuning.dt), tuning)
    plan = ilqr.solve(spec).trajectory.controls
    plain = [compare._plain(spec, None, None),
             compare._plain(spec, plan, ilqr.WARM_CONFIG)]
    calls, real = [], ilqr.backward_pass

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ilqr, "backward_pass", counting)
    for keep in (True, False, False):
        before = len(calls)
        compare._timed(ilqr, plain, keep)
        assert len(calls) - before >= len(plain)


def test_compare_runs_reads_equal_against_its_own_tree():
    """scripts/compare_runs.py with --base set to the head tree: both runs
    of straight_smoke write the same CSV, and every comparison reads
    "equal"."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_runs.py"),
         "--base", str(ROOT), "--seeds", "3", "--configs", "straight_smoke"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "straight_smoke seed 3" in lines
    compared = [line for line in lines if line.startswith("  ")]
    # the CSV line and each metric, per seed and over the seeds
    assert len(compared) == 11
    assert compared[0].startswith("  csv sha256")
    assert all(line.endswith("  equal") for line in compared)


def _trees(*dirs: str) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text())
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def test_every_public_member_and_function_has_a_caller():
    """Nothing in src/ lives for the tests alone.

    Each public method or property of a class in src/ must be reached
    from src/ or bench/ as `.name` or as the string "name" (getattr, a
    rebinding table).  Each public module-level function outside every
    `__all__` must be reached that way too, or used by its bare name: a
    call or an import.  The check goes by name only, so a dead member
    that shares its name with a live one (as a deleted VpcEstimator.reset
    did with the planners' reset) passes.
    """
    src = _trees("src")
    attrs, strings, names = set(), set(), set()
    for tree in {**src, **_trees("bench")}.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                              str):
                strings.add(node.value)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    exported = set()
    for tree in src.values():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and ast.unparse(node.targets[0]) == "__all__"):
                exported |= set(ast.literal_eval(node.value))

    def public(body):
        return [node.name for node in body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")]

    unreached = []
    for path, tree in src.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                unreached += [f"{path.name}:{node.name}.{name}"
                              for name in public(node.body)
                              if name not in attrs | strings]
        unreached += [f"{path.name}:{name}" for name in public(tree.body)
                      if name not in exported | attrs | strings | names]
    assert unreached == []


def test_every_parameter_is_read():
    """No function or lambda in src/ takes a parameter its body never reads.

    `self`, `cls` and names with a leading underscore (a parameter a
    caller's signature imposes) are exempt.  A read in a nested function
    counts.
    """
    unread = []
    for path, tree in _trees("src").items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno}:{name}({param})"
                       for param in params
                       if param not in read and param not in ("self", "cls")
                       and not param.startswith("_")]
    assert unread == []


def _table(header: str) -> list[list[str]]:
    """Cells of the README table under the given header row."""
    lines = README.splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:   # past the |---| row
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows
    return rows


def _ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_readme_config_examples_are_registry_keys():
    # each backticked example (the part before a "/") matches a key of
    # its row's section, so a renamed or deleted key cannot stay listed
    stale = []
    for section, _, examples in _table("| section | covers | examples |"):
        (pattern,) = _ticked(section)
        keys = [key.split(".", 1)[1] for key in _REGISTRY
                if fnmatch.fnmatch(key, pattern)]
        stale += [(pattern, name) for name in _ticked(examples)
                  if not fnmatch.filter(keys, name.split("/")[0])]
    assert stale == []


def test_readme_constants_exist_in_their_modules():
    missing = []
    for names, _, module in _table("| constant | value | module |"):
        (module,) = _ticked(module)
        mod = importlib.import_module(f"cilqr_drive.{module}")
        missing += [(module, name) for name in _ticked(names)
                    if not hasattr(mod, name)]
    assert missing == []


def _readme_commands() -> list[list[str]]:
    """Each `cilqr-drive` line of the README's sh blocks, continuations
    joined, as argv; lines that use a shell variable are left out."""
    text = "".join(re.findall(r"```sh\n(.*?)```", README, re.S))
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("cilqr-drive ") and "$" not in line]


def test_readme_commands_parse(monkeypatch):
    # the subcommands are stubbed: each line is parsed, not run
    from cilqr_drive import cli
    parsed = []
    for name in ("_cmd_run", "_cmd_compare", "_cmd_benchmark"):
        monkeypatch.setattr(cli, name, lambda args: parsed.append(args) or 0)
    commands = _readme_commands()
    assert commands
    for argv in commands:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejected the line
            rc = exc.code
        assert rc == 0, argv
        assert (ROOT / parsed[-1].config).is_file(), argv
    assert len(parsed) == len(commands)
