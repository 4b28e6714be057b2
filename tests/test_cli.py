"""Configuration and command-line runner tests."""

import copy
import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cilqr_drive.cli import (_execute, main, replay_lateral_timing,
                             replay_longitudinal_timing)
from cilqr_drive.config import (KPH, _REGISTRY, ConfigError, _as_float,
                                _as_int, _nonneg, _positive, load_run_config)
from cilqr_drive.lanes import VpcEstimator
from cilqr_drive.lateral import LateralPlanner, LateralTuning
from cilqr_drive.longitudinal import (ACCEL_TAU, LongitudinalPlanner,
                                      LongTuning)
from cilqr_drive.sim import (LeadSpec, compute_metrics, preset_straight_smoke,
                             preset_trackA_lane_keeping,
                             preset_trackB_following, run_scenario)
from cilqr_drive.sim.scenario import CONTROLLERS
from cilqr_drive.sim.track import TRACKS

SMOKE = """\
scenario.track = straight
scenario.duration_s = 2.0
scenario.cruise_speed_kph = 76.0
scenario.seed = 3
"""

FOLLOWING = """\
scenario.track = straight
scenario.duration_s = 3.0
scenario.cruise_speed_kph = 76.0
scenario.longitudinal = true
scenario.lead = true
scenario.lead_gap_m = 30.0
scenario.lead_speed_kph = 70.0
scenario.seed = 3
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))

# where each registry section lands in asdict(RunConfig)
SECTION_PATH = {"run": (), "spec": ("spec",), "lead": ("spec", "lead"),
                "noise": ("spec", "noise"), "rates": ("spec", "rates"),
                "vehicle": ("vehicle",), "lateral": ("lateral",),
                "long": ("long_tuning",), "vpc": ("vpc",)}
# values the generic rule of _distinct would leave invalid or at default
SPECIAL = {"scenario.track": "circle100", "scenario.controller": "vpc-cilqr",
           "scenario.longitudinal": "true", "scenario.lead": "true",
           "scenario.name": "distinct", "longitudinal.d_critical": "6.25",
           "longitudinal.d_floor": "1.25", "longitudinal.d_ref": "12.5"}
# the metrics window is set whole or not at all
WINDOW = {"scenario.metrics_t_start": "0", "scenario.metrics_t_end": "1000"}


def _distinct(index: int, key: str) -> str:
    """A valid value for key that no other key gets and no default has."""
    if key in SPECIAL:
        return SPECIAL[key]
    if _REGISTRY[key][2] is _as_int:
        return str(100 + index)
    return repr(1.5 + index / 16)


CROSS_FIELD = [
    (SMOKE + "longitudinal.d_critical = 12\n", 5,
     "longitudinal.*: critical distance must sit below the reference"),
    (SMOKE + "longitudinal.d_floor = 6\n", 5,
     "longitudinal.*: need 0 < d_floor < d_critical"),
    (SMOKE + "sim.perception_us = 100\nsim.plant_us = 3000\n", 6,
     "sim.*: plant step must be at most 2 ms"),
    (FOLLOWING + "scenario.lead_amplitude_kph = 80\n", 9,
     "scenario.lead_*: lead speed must stay positive"),
    (SMOKE + "scenario.lead_gap_m = 30\n", 5,
     "scenario.lead_gap_m requires scenario.lead = true"),
    (SMOKE + "scenario.metrics_t_end = 1\n", 5,
     "scenario.metrics_t_start and scenario.metrics_t_end must be given "
     "together"),
    (SMOKE + "scenario.metrics_t_start = 5\nscenario.metrics_t_end = 3\n", 6,
     "scenario.metrics_t_end must exceed scenario.metrics_t_start"),
    (SMOKE + "scenario.metrics_t_start = 5\nscenario.metrics_t_end = 5\n", 6,
     "scenario.metrics_t_end must exceed scenario.metrics_t_start"),
    (SMOKE + "scenario.laps = 1.0\n", 2,
     "scenario.*: set exactly one of duration_s or laps"),
    # sections are checked in order: the longitudinal tuning comes first
    (SMOKE + "scenario.lead_gap_m = 30\nlongitudinal.d_critical = 12\n", 6,
     "longitudinal.*: critical distance must sit below the reference"),
    # a window past the run's end cites the duration that ends the run
    (SMOKE + "scenario.metrics_t_start = 5\nscenario.metrics_t_end = 9\n", 2,
     "scenario.*: metrics_t_range must start before the run's time limit, "
     "2 s"),
]


# shipped file -> (preset it must equal, controller, longitudinal)
SHIPPED = {
    "straight_smoke.cfg": (preset_straight_smoke, "cilqr", False),
    "trackA_cilqr.cfg": (preset_trackA_lane_keeping, "cilqr", False),
    "trackA_vpc.cfg": (preset_trackA_lane_keeping, "vpc-cilqr", False),
    "trackB_following.cfg": (preset_trackB_following, "cilqr", True),
}


def _edge_values():
    """(key, value) at the edge of each numeric key's accepted range: 0
    for a nonnegative key, 1 for a positive integer, 1e-3 and 1e3 for a
    positive float."""
    out = []
    for key, (_, _, cast, check) in _REGISTRY.items():
        if check is _nonneg:
            out.append((key, "0"))
        elif check is _positive and cast is _as_int:
            out.append((key, "1"))
        elif check is _positive and cast is _as_float:
            out += [(key, "1e-3"), (key, "1e3")]
    return out


EDGE_VALUES = _edge_values()

# each planner tuning row with a range check
TUNING_ROWS = [key for key, (section, _, _, check) in _REGISTRY.items()
               if section in ("lateral", "long")
               and check in (_positive, _nonneg)]


class TestLoadRunConfig:

    def test_defaults_match_published_values(self, tmp_path):
        cfg = load_run_config(_write(tmp_path, SMOKE))
        assert cfg.vehicle.m == 1150.0
        assert cfg.vehicle.c_alpha_f == 80000.0
        assert cfg.lateral.q_diag == (20.0, 1.0, 20.0, 1.0)
        assert cfg.lateral.dt == 0.05
        assert cfg.long_tuning.d_ref == 11.0
        assert cfg.long_tuning.dt == 0.1
        assert cfg.vpc.lookahead_L == 10.0
        assert cfg.vpc.k_vpc == 2.64
        assert cfg.spec.rates.planner_us == 6660
        assert cfg.spec.cruise_speed == pytest.approx(76.0 / 3.6)

    def test_unknown_key_is_line_precise(self, tmp_path):
        path = _write(tmp_path, SMOKE + "vehicle.masss = 1\n")
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert "vehicle.masss" in str(err.value)
        assert ":5:" in str(err.value)

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path, SMOKE + "scenario.seed = 4\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_run_config(path)

    def test_type_mismatch_rejected(self, tmp_path):
        path = _write(tmp_path, SMOKE + "lateral.horizon = 3.5\n")
        with pytest.raises(ConfigError, match="integer"):
            load_run_config(path)

    def test_duration_and_laps_both_given_rejected(self, tmp_path):
        path = _write(tmp_path, SMOKE + "scenario.laps = 1.0\n")
        with pytest.raises(ConfigError, match="duration"):
            load_run_config(path)

    def test_lead_keys_without_lead_rejected(self, tmp_path):
        path = _write(tmp_path, SMOKE + "scenario.lead_gap_m = 30\n")
        with pytest.raises(ConfigError, match="scenario.lead"):
            load_run_config(path)

    def test_unknown_track_lists_the_presets(self, tmp_path):
        path = _write(tmp_path, SMOKE.replace("= straight", "= moon"))
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert str(err.value) == (f"{path}:1: scenario.track: must be one "
                                  f"of {', '.join(TRACKS)}")

    def test_metrics_window_needs_both_ends(self, tmp_path):
        path = _write(tmp_path, SMOKE + "scenario.metrics_t_start = 1\n")
        with pytest.raises(ConfigError, match="metrics_t_end"):
            load_run_config(path)

    def test_set_override_wins_over_file(self, tmp_path):
        path = _write(tmp_path, SMOKE)
        cfg = load_run_config(path, overrides=("scenario.seed=9",
                                               "vehicle.mass=1200"))
        assert cfg.spec.seed == 9
        assert cfg.vehicle.m == 1200.0

    def test_seed_flag_wins_over_set(self, tmp_path):
        path = _write(tmp_path, SMOKE)
        cfg = load_run_config(path, overrides=("scenario.seed=9",), seed=11)
        assert cfg.spec.seed == 11

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("key", list(_REGISTRY))
    def test_every_key_reaches_its_field(self, tmp_path, key):
        # the key changes exactly the field its registry row names
        section, name, cast = _REGISTRY[key][:3]
        # long enough to hold every drawn metrics_t_start (2.25 at most)
        base = {"scenario.track": "straight", "scenario.duration_s": "3"}
        if key == "scenario.laps":
            base = {"scenario.track": "straight", "scenario.laps": "1"}
        if key.startswith("scenario.lead_"):
            base["scenario.lead"] = "true"
        if key in WINDOW:
            base.update(WINDOW)
        path = _write(tmp_path, "".join(f"{k} = {v}\n"
                                        for k, v in base.items()))
        raw = _distinct(list(_REGISTRY).index(key), key)
        before = asdict(load_run_config(path))
        after = asdict(load_run_config(path, overrides=(f"{key}={raw}",)))
        expected = copy.deepcopy(before)
        if name is None:            # the switch of the lead section
            expected["spec"]["lead"] = asdict(LeadSpec())
        else:
            dest = expected
            for part in SECTION_PATH[section]:
                dest = dest[part]
            value = cast(raw)
            if key.endswith("_kph"):
                assert value * KPH == pytest.approx(value / 3.6, rel=1e-15)
                value *= KPH
            if isinstance(name, tuple):
                name, index = name
                entries = list(dest[name])
                entries[index] = value
                value = tuple(entries)
            dest[name] = value
        assert after != before
        assert after == expected

    def test_registry_rows_name_distinct_fields(self):
        # no two keys share a field or tuple entry, and a field is named
        # after its key unless listed here
        renamed = {"vehicle.mass": "m", "lateral.r_steer": "r",
                   "longitudinal.r_jerk": "r",
                   "scenario.cruise_speed_kph": "cruise_speed",
                   "scenario.start_speed_kph": "start_v",
                   "scenario.lead_gap_m": "initial_gap",
                   "scenario.lead_speed_kph": "base_speed",
                   "scenario.lead_amplitude_kph": "amplitude",
                   "scenario.lead_period_s": "period_s",
                   "vpc.lookahead_l": "lookahead_L"}
        seen = set()
        for key, (section, name, _, _) in _REGISTRY.items():
            assert (section, name) not in seen
            seen.add((section, name))
            if name is not None and not isinstance(name, tuple):
                assert name == renamed.get(key, key.split(".", 1)[1])

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        assert load_run_config(path).spec.name == path.stem.replace("_", "-")

    def test_shipped_configs_found(self):
        assert [p.name for p in CONFIGS] == [
            "straight_smoke.cfg", "trackA_cilqr.cfg", "trackA_vpc.cfg",
            "trackB_following.cfg"]

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_equals_its_preset(self, path):
        # the acceptance gates run the presets and `run` runs the files
        preset, controller, longitudinal = SHIPPED[path.name]
        cfg = load_run_config(path)
        mine, theirs = asdict(cfg.spec), asdict(preset())
        mine.pop("name")
        theirs.pop("name")
        assert mine == theirs
        assert (cfg.controller, cfg.longitudinal) == (controller,
                                                      longitudinal)

    @pytest.mark.parametrize("key, raw", EDGE_VALUES)
    def test_edge_of_range_value_is_rejected_or_runs(self, tmp_path, key,
                                                     raw):
        # a value the registry accepts must not fail later, where it
        # would surface as a traceback instead of a config error
        base = SMOKE
        if key.startswith("scenario.lead_"):
            base += "scenario.lead = true\n"
        if key in WINDOW:
            base += "".join(f"{k} = {v}\n" for k, v in WINDOW.items()
                            if k != key)
        try:
            cfg = load_run_config(_write(tmp_path, base),
                                  overrides=(f"{key}={raw}",))
        except ConfigError:
            return
        LateralPlanner(params=cfg.vehicle, tuning=cfg.lateral)
        LongitudinalPlanner(cruise_speed=cfg.spec.cruise_speed,
                            period=cfg.spec.rates.planner_us * 1e-6,
                            tuning=cfg.long_tuning)
        VpcEstimator(cfg.vpc)

    @pytest.mark.parametrize("key", TUNING_ROWS)
    def test_tuning_rejects_what_its_row_rejects_naming_the_field(self, key):
        # the boundary value the row rejects (0 for a positive key, the
        # largest negative float for a nonnegative one), passed straight to
        # the dataclass: refused there, not when a planner builds its
        # problem with an error that names an internal
        section, name, cast, check = _REGISTRY[key]
        cls = {"lateral": LateralTuning, "long": LongTuning}[section]
        bad = cast("0") if check is _positive else -math.ulp(0.0)
        with pytest.raises(ValueError):
            check(bad)
        if isinstance(name, tuple):
            name, index = name
            entries = list(getattr(cls(), name))
            entries[index] = bad
            bad = tuple(entries)
        with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
            cls(**{name: bad})

    @pytest.mark.parametrize("cls", [LateralTuning, LongTuning])
    def test_tuning_rejects_a_q_diag_of_another_length(self, cls):
        n = len(cls().q_diag)
        for q_diag in ((1.0,) * (n - 1), (1.0,) * (n + 1)):
            with pytest.raises(ValueError, match=f"q_diag must hold {n} "):
                cls(q_diag=q_diag)

    @pytest.mark.parametrize("text, line, message", CROSS_FIELD)
    def test_cross_field_error_is_pinned(self, tmp_path, text, line,
                                         message):
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            load_run_config(path)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: {message}"


class TestRunCommand:

    def test_smoke_run_writes_artifacts(self, tmp_path):
        cfg = _write(tmp_path, SMOKE)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        csv_path = out / "run.csv"
        assert csv_path.is_file()
        assert len(csv_path.read_text().splitlines()) > 100
        metrics = json.loads((out / "run_metrics.json").read_text())
        assert "delta_max_abs_m" in metrics
        assert "delta_mae_m" in metrics
        # run does not time its cycles, so no solve time is reported
        assert metrics["solver_time_mean_ms"] is None
        assert metrics["solver_time_max_ms"] is None
        assert (out / "plot_run.py").is_file()

    def test_negative_mass_names_the_key(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMOKE + "vehicle.mass = -1\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "vehicle.mass" in err
        assert "positive" in err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMOKE + "sim.sigma_tehta = 0.01\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "sim.sigma_tehta" in capsys.readouterr().err

    def test_steer_limit_key_is_unknown(self, tmp_path, capsys):
        # the planner, the plant and the preview corrector share one fixed
        # steering limit, so no key may move the planner's alone
        cfg = _write(tmp_path, SMOKE + "lateral.steer_limit_rad = 0.3\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown key" in err and "lateral.steer_limit_rad" in err

    def test_bad_set_override_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMOKE)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path),
                   "--set", "scenario.seed=abc"])
        assert rc == 1
        assert "scenario.seed" in capsys.readouterr().err

    def test_non_finite_file_value_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMOKE + "lateral.q_delta = inf\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "lateral.q_delta" in err
        assert "finite" in err

    def test_non_finite_set_override_exits_one(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMOKE)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path),
                   "--set", "scenario.start_delta=nan"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "scenario.start_delta" in err
        assert "finite" in err

    def test_lead_slower_than_its_swing_exits_one(self, tmp_path, capsys):
        text = FOLLOWING + "scenario.lead_amplitude_kph = 80\n"
        cfg = _write(tmp_path, text)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "scenario.lead_" in capsys.readouterr().err

    def test_equal_seeds_give_identical_csv(self, tmp_path):
        cfg = _write(tmp_path, FOLLOWING)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["run", "--config", str(cfg), "--out", str(out)])
            assert rc == 0
            outs.append((out / "run.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMOKE)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path),
                   "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "--seed: scenario.seed: must be nonnegative" in err

    def test_unknown_controller_flag_is_a_config_error(self, tmp_path,
                                                       capsys):
        cfg = _write(tmp_path, SMOKE)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out),
                   "--controller", "bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert ("--controller: scenario.controller: must be one of "
                "cilqr, vpc-cilqr") in err
        assert not out.exists()

    def test_off_track_start_exits_two(self, tmp_path, capsys):
        text = SMOKE + "scenario.start_delta = 9.8\nscenario.start_theta = 0.9\n"
        cfg = _write(tmp_path, text)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "off_track" in capsys.readouterr().err


def _compare(tmp_path, text, name):
    """compare.txt and compare.json of `compare` on a config of text."""
    cfg = _write(tmp_path, text, f"{name}.cfg")
    out = tmp_path / name
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    return ((out / "compare.txt").read_text(),
            json.loads((out / "compare.json").read_text()))


class TestCompareCommand:

    def test_each_controller_runs_the_one_config(self, tmp_path):
        # the report holds one run per controller on the same config, and
        # the controller a file names does not change it
        text, report = _compare(tmp_path, SMOKE, "plain")
        assert report["controllers"] == list(CONTROLLERS)
        spec = load_run_config(_write(tmp_path, SMOKE)).spec
        for c in CONTROLLERS:
            expected = {k: None if isinstance(v, float)
                        and not math.isfinite(v) else v
                        for k, v in compute_metrics(
                            run_scenario(spec, controller=c)).items()}
            assert report["metrics"][c] == expected
        assert _compare(tmp_path,
                        SMOKE + "scenario.controller = vpc-cilqr\n",
                        "vpc") == (text, report)

    def test_controller_pair_reports_ratio(self, tmp_path):
        text, report = _compare(tmp_path, SMOKE, "out")
        assert report["controllers"] == ["cilqr", "vpc-cilqr"]
        assert report["reference_ratio"] == 1.36
        a, b = (report["metrics"][c]["delta_max_abs_m"]
                for c in ("cilqr", "vpc-cilqr"))
        assert report["max_offset_ratio"] == a / b
        assert (f"max offset ratio (cilqr / vpc-cilqr): {a / b:.4f}"
                in text)

    def test_zero_offset_in_second_run_gives_nan_ratio(self, tmp_path,
                                                       capsys):
        # too short to leave the centerline: the ratio has no value
        text, report = _compare(
            tmp_path, SMOKE.replace("duration_s = 2.0", "duration_s = 0.001"),
            "out")
        assert report["metrics"]["vpc-cilqr"]["delta_max_abs_m"] == 0.0
        assert report["max_offset_ratio"] is None
        assert "max offset ratio (cilqr / vpc-cilqr): nan" in text
        assert capsys.readouterr().out == text


class TestBenchmarkCommand:

    def test_benchmark_reports_solver_timing(self, tmp_path, capsys):
        cfg = _write(tmp_path, FOLLOWING)
        out = tmp_path / "out"
        rc = main(["benchmark", "--config", str(cfg), "--out", str(out),
                   "--states", "20"])
        assert rc == 0
        reports = json.loads((out / "benchmark.json").read_text())
        names = {r["planner"] for r in reports}
        assert names == {"lateral", "longitudinal"}
        # each planner's line ends with its mean iteration count
        lines = capsys.readouterr().out.splitlines()
        for rep in reports:
            assert (f"{rep['planner']}: mean {rep['mean_ms']:.3f} ms, "
                    f"median {rep['median_ms']:.3f} ms, "
                    f"p95 {rep['p95_ms']:.3f} ms, "
                    f"max {rep['max_ms']:.3f} ms over "
                    f"{rep['n_solves']} solves, "
                    f"{rep['mean_iterations']:.2f} iterations mean") in lines
            assert rep["mean_iterations"] >= 1.0
        for rep in reports:
            assert rep["mean_ms"] > 0.0
            assert rep["n_solves"] > 0

    def test_following_replay_runs_at_the_logged_spacing(self, tmp_path,
                                                         monkeypatch):
        # the replay planner's period is the logged time between replayed
        # states: its start-state acceleration is the low-pass of the
        # replayed speed differences at their logged spacing
        import cilqr_drive.longitudinal as longitudinal
        cfg = load_run_config(_write(tmp_path, FOLLOWING), ())
        log = _execute(cfg)
        starts = []
        real_solve = longitudinal.solve

        def spy(spec, warm_start=None, config=None):
            starts.append(spec.x0.copy())
            return real_solve(spec, warm_start=warm_start, config=config)

        monkeypatch.setattr(longitudinal, "solve", spy)
        report = replay_longitudinal_timing(log, cfg, n_states=20)
        t, v = log.columns["time_s"], log.columns["v_mps"]
        assert np.isfinite(log.columns["D_m"]).all()
        # 6.66 ms planner cadence on 1 ms plant rows, then a uniform stride
        rows = np.arange(0, len(log), 7)
        idx = rows[::rows.size // 20]
        assert report["n_solves"] == len(starts) == idx.size >= 20
        p = float(np.mean(np.diff(t[idx])))
        a = 0.0
        assert starts[0][2] == 0.0
        for j in range(1, idx.size):
            a += p / (ACCEL_TAU + p) * ((v[idx[j]] - v[idx[j - 1]]) / p - a)
            assert starts[j][1] == v[idx[j]]
            assert starts[j][2] == pytest.approx(a, rel=0.0, abs=1e-9)

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMOKE)
        out = tmp_path / "out"
        rc = main(["benchmark", "--config", str(cfg), "--out", str(out),
                   "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "--seed: scenario.seed: must be nonnegative" in err
        assert not out.exists()

    @pytest.mark.parametrize("states", ["0", "-3"])
    def test_fewer_than_one_state_is_a_config_error(self, tmp_path, capsys,
                                                    states):
        cfg = _write(tmp_path, SMOKE)
        out = tmp_path / "out"
        rc = main(["benchmark", "--config", str(cfg), "--out", str(out),
                   "--states", states])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "--states" in err
        assert not out.exists()

    @pytest.mark.parametrize("replay", [replay_lateral_timing,
                                        replay_longitudinal_timing])
    @pytest.mark.parametrize("n_states", [0, -3])
    def test_replay_of_fewer_than_one_state_is_rejected(self, tmp_path,
                                                         replay, n_states):
        cfg = load_run_config(_write(tmp_path, FOLLOWING),
                              ("scenario.duration_s=0.2",))
        log = _execute(cfg)
        with pytest.raises(ValueError, match="n_states must be at least 1"):
            replay(log, cfg, n_states=n_states)
