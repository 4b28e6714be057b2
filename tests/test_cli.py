"""Configuration and command-line runner tests."""

import copy
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cilqr_drive.cli import _execute, main, replay_longitudinal_timing
from cilqr_drive.config import (KPH, _REGISTRY, ConfigError, _as_int,
                                load_run_config)
from cilqr_drive.sim import LeadSpec

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
]


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
        base = {"scenario.track": "straight", "scenario.duration_s": "2"}
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
                   "lateral.steer_limit_rad": "steer_limit",
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
        assert load_run_config(path).source == str(path)

    def test_shipped_configs_found(self):
        assert [p.name for p in CONFIGS] == [
            "straight_smoke.cfg", "trackA_cilqr.cfg", "trackA_vpc.cfg",
            "trackB_following.cfg"]

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

    def test_off_track_start_exits_two(self, tmp_path, capsys):
        text = SMOKE + "scenario.start_delta = 9.8\nscenario.start_theta = 0.9\n"
        cfg = _write(tmp_path, text)
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "off_track" in capsys.readouterr().err


class TestCompareCommand:

    def test_identical_controllers_ratio_one(self, tmp_path):
        cfg_a = _write(tmp_path, SMOKE, "a.cfg")
        cfg_b = _write(tmp_path, SMOKE, "b.cfg")
        out = tmp_path / "out"
        rc = main(["compare", str(cfg_a), str(cfg_b), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["max_offset_ratio"] == 1.0

    def test_seed_mismatch_rejected(self, tmp_path, capsys):
        cfg_a = _write(tmp_path, SMOKE, "a.cfg")
        cfg_b = _write(tmp_path, SMOKE.replace("seed = 3", "seed = 4"),
                       "b.cfg")
        rc = main(["compare", str(cfg_a), str(cfg_b),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_non_controller_difference_rejected(self, tmp_path, capsys):
        cfg_a = _write(tmp_path, SMOKE, "a.cfg")
        cfg_b = _write(tmp_path, SMOKE + "vehicle.mass = 1200\n", "b.cfg")
        rc = main(["compare", str(cfg_a), str(cfg_b),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "controller" in capsys.readouterr().err

    def test_controller_pair_reports_ratio(self, tmp_path):
        cfg_a = _write(tmp_path, SMOKE, "a.cfg")
        cfg_b = _write(tmp_path,
                       SMOKE + "scenario.controller = vpc-cilqr\n", "b.cfg")
        out = tmp_path / "out"
        rc = main(["compare", str(cfg_a), str(cfg_b), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["controllers"] == ["cilqr", "vpc-cilqr"]
        assert report["reference_ratio"] == 1.36

    def test_zero_offset_in_second_run_gives_nan_ratio(self, tmp_path,
                                                       capsys):
        # too short to leave the centerline: the ratio has no value
        text = SMOKE.replace("duration_s = 2.0", "duration_s = 0.001")
        cfg_a = _write(tmp_path, text, "a.cfg")
        cfg_b = _write(tmp_path, text + "scenario.controller = vpc-cilqr\n",
                       "b.cfg")
        out = tmp_path / "out"
        rc = main(["compare", str(cfg_a), str(cfg_b), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "compare.json").read_text())
        assert report["metrics"]["vpc-cilqr"]["delta_max_abs_m"] == 0.0
        assert report["max_offset_ratio"] is None
        assert ("max offset ratio (cilqr / vpc-cilqr): nan"
                in capsys.readouterr().out)


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
        # states: its start-state acceleration is the mean of the last
        # three speed differences over their logged spacing
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
        assert starts[0][2] == 0.0
        for j in range(1, idx.size):
            r = idx[max(0, j - 3):j + 1]
            assert starts[j][1] == v[idx[j]]
            assert starts[j][2] == pytest.approx(
                np.mean(np.diff(v[r]) / np.diff(t[r])), rel=0.0, abs=1e-9)

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
