"""Closed-loop simulator tests: tracks, plant, sensors, and scenarios."""

import dataclasses
import math

import numpy as np
import pytest

from cilqr_drive.sim import (
    LatencyQueue,
    LeadSpec,
    NoiseConfig,
    OffTrackError,
    PlantState,
    ScenarioSpec,
    SimLog,
    SimRates,
    TrackGeometry,
    build_track,
    compute_metrics,
    perceive,
    preset_straight_smoke,
    preset_trackB_following,
    radar_measure,
    run_scenario,
    step_plant,
)
from cilqr_drive.lanes import VpcConfig
from cilqr_drive.lateral import LateralTuning, VehicleParams
from cilqr_drive.longitudinal import LongitudinalPlanner, LongTuning, PiState
from cilqr_drive.sim.scenario import CONTROLLERS, CSV_COLUMNS
from cilqr_drive.sim.track import TRACKS

from oracles import centerline_end


class TestBuildTrack:

    def test_track_a_headline_numbers(self):
        track = build_track("trackA")
        assert abs(track.length - 2843.0) <= 1.0
        assert 0.029 <= track.max_kappa <= 0.031
        assert track.closed

    def test_track_b_headline_numbers(self):
        track = build_track("trackB")
        assert abs(track.length - 3919.0) <= 1.0
        assert 0.049 <= track.max_kappa <= 0.051

    def test_straight_preset_zero_curvature(self):
        track = build_track("straight")
        for s in np.linspace(0.0, track.length, 50):
            assert track.curvature(float(s)) == 0.0

    def test_circle_preset_constant_curvature(self):
        track = build_track("circle100")
        assert track.length == pytest.approx(2.0 * math.pi * 100.0, abs=1e-9)
        for s in np.linspace(0.0, track.length, 50):
            assert track.curvature(float(s)) == pytest.approx(0.01, abs=1e-15)

    def test_closed_presets_return_to_start(self):
        # far tighter than the 1 m requirement: construction is symmetric
        for preset in ("trackA", "trackB"):
            track = build_track(preset)
            breaks = np.cumsum([0.0] + [seg[0] for seg in track.segments])
            assert math.hypot(*centerline_end(track.heading_many,
                                              breaks)) < 1e-6

    def test_track_a_is_one_full_turn(self):
        track = build_track("trackA")
        assert track.heading_many([track.length])[0] == pytest.approx(
            2.0 * math.pi, abs=1e-9)

    def test_each_preset_builds_its_named_track(self):
        for name in TRACKS:
            assert build_track(name).name == name
        with pytest.raises(ValueError, match="unknown track preset"):
            build_track("moon")

    def test_discontinuous_profile_rejected(self):
        with pytest.raises(ValueError):
            TrackGeometry([(100.0, 0.0, 0.0), (100.0, 0.02, 0.02)],
                          closed=False)

    def test_closed_track_with_curvature_jump_at_seam_rejected(self):
        with pytest.raises(ValueError):
            TrackGeometry([(100.0, 0.0, 0.01)], closed=True)

    def test_nonpositive_segment_length_rejected(self):
        with pytest.raises(ValueError):
            TrackGeometry([(0.0, 0.0, 0.0)], closed=False)

    def test_curvature_is_continuous_along_arc_length(self):
        track = build_track("trackA")
        ss = np.linspace(0.0, track.length, 4000)
        ks = np.array([track.curvature(float(s)) for s in ss])
        ds = ss[1] - ss[0]
        # piecewise-linear profile: increments bounded by slope * ds
        assert np.max(np.abs(np.diff(ks))) <= 0.031 / 12.0 * ds * 1.01

    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("preset", ["trackA", "trackB", None])
    def test_scalar_curvature_in_any_query_order_equals_the_vector_form(
            self, preset, closed):
        # curvature(s) starts from the segment of its previous query; the
        # order of queries must never change a result
        if preset is None:
            track = TrackGeometry([(30.0, 0.0, 0.03), (50.0, 0.03, 0.03),
                                   (30.0, 0.03, 0.0)], closed=closed)
        elif closed:
            track = build_track(preset)
        else:
            track = TrackGeometry(build_track(preset).segments,
                                  closed=False)
        breaks = np.concatenate(([0.0], np.cumsum(
            [seg[0] for seg in track.segments])))
        L = track.length
        on_breaks = np.concatenate([
            np.column_stack([breaks, np.nextafter(breaks, -np.inf),
                             np.nextafter(breaks, np.inf)]).ravel(),
            breaks[::-1], breaks + L, breaks - L])
        forward = np.arange(-20.0, L + 20.0, L / 397.0)
        wrap = np.array([L - 1e-9, L, L + 1e-9, -1e-20, 0.0, -1e-9, L,
                         2.0 * L, 3.0 * L - 1e-7, 1e-7])
        rng = np.random.default_rng(4)
        jumps = rng.uniform(-2.0 * L, 3.0 * L, 300)
        steps = breaks[len(breaks) // 2] + np.cumsum(rng.normal(0.0, 2.0, 500))
        s = np.concatenate([forward, forward[::-1], on_breaks, wrap, jumps,
                            steps, on_breaks[::-1]])
        want = track.curvature_many(s)
        got = [track.curvature(sj) for sj in s.tolist()]
        np.testing.assert_array_equal(got, want)


class TestStepPlant:

    def test_straight_centered_state_stays_centered(self):
        track = build_track("straight")
        state = PlantState(s=0.0, v=20.0)
        for _ in range(10000):
            state = step_plant(state, 0.0, 0.0, 0.0, 1e-3, track)
        assert abs(state.delta) <= 1e-9
        assert abs(state.theta) <= 1e-9
        assert state.v == 20.0  # no drag, no command: exactly constant

    def test_constant_steer_matches_understeer_prediction(self):
        # axle stiffness is twice the per-tire value used by the plant
        m, cf, cr = 1150.0, 160000.0, 160000.0
        l_f, l_r = 1.27, 1.37
        wheelbase = l_f + l_r
        k_us = m * (l_r * cr - l_f * cf) / (cf * cr * wheelbase)
        v, steer = 20.0, 0.02
        r_pred = v * steer / (wheelbase + k_us * v * v)
        track = build_track("straight")
        state = PlantState(s=0.0, v=v)
        for _ in range(6000):
            state = step_plant(state, steer, 0.0, 0.0, 1e-3, track)
            # yaw dynamics are decoupled from position on a straight;
            # pin the pose so the turning car cannot run off the road
            state = dataclasses.replace(state, s=0.0, delta=0.0, theta=0.0)
        assert state.yaw_rate == pytest.approx(r_pred, rel=0.10)

    def test_accel_command_maps_to_five_mps2(self):
        track = build_track("straight")
        state = PlantState(s=0.0, v=20.0)
        for _ in range(1000):
            state = step_plant(state, 0.0, 0.5, 0.0, 1e-3, track)
        assert state.v == pytest.approx(22.5, abs=1e-9)

    def test_brake_command_maps_to_eight_mps2(self):
        track = build_track("straight")
        state = PlantState(s=0.0, v=20.0)
        for _ in range(1000):
            state = step_plant(state, 0.0, 0.0, 0.5, 1e-3, track)
        assert state.v == pytest.approx(16.0, abs=1e-9)

    def test_speed_never_goes_negative_under_full_brake(self):
        track = build_track("straight")
        state = PlantState(s=0.0, v=1.0)
        for _ in range(2000):
            state = step_plant(state, 0.0, 0.0, 1.0, 1e-3, track)
        assert state.v == 0.0

    def test_crawl_regime_bleeds_lateral_states(self):
        track = build_track("straight")
        state = PlantState(s=0.0, v=0.3, yaw_rate=0.5, v_lat=0.2)
        for _ in range(1000):
            state = step_plant(state, 0.0, 0.0, 0.0, 1e-3, track)
        assert abs(state.v_lat) < 1e-3
        assert abs(state.yaw_rate) < 1e-3

    def test_oversized_step_rejected(self):
        track = build_track("straight")
        state = PlantState(s=0.0, v=20.0)
        with pytest.raises(ValueError):
            step_plant(state, 0.0, 0.0, 0.0, 0.003, track)
        with pytest.raises(ValueError):
            step_plant(state, 0.0, 0.0, 0.0, 0.0, track)

    def test_leaving_the_road_raises(self):
        track = build_track("straight")
        state = PlantState(s=0.0, delta=9.5, theta=1.0, v=30.0)
        with pytest.raises(OffTrackError):
            for _ in range(100):
                state = step_plant(state, 0.0, 0.0, 0.0, 1e-3, track)

    def test_nonfinite_state_rejected(self):
        with pytest.raises(ValueError):
            PlantState(s=math.nan, v=20.0)
        with pytest.raises(ValueError):
            PlantState(s=0.0, v=-1.0)


class TestPerceive:

    def test_zero_noise_equals_truth(self):
        track = build_track("straight")
        rng = np.random.default_rng(0)
        state = PlantState(s=100.0, delta=0.3, theta=0.02, v=20.0)
        frame = perceive(state, track, NoiseConfig(), rng, now=1.5)
        assert frame.theta_meas == state.theta
        assert frame.delta_meas == state.delta
        assert frame.lane_map.timestamp == 1.5

    def test_straight_track_lane_points_sit_at_minus_offset(self):
        track = build_track("straight")
        rng = np.random.default_rng(0)
        state = PlantState(s=100.0, delta=0.3, theta=0.0, v=20.0)
        frame = perceive(state, track, NoiseConfig(), rng, now=0.0)
        pts = frame.lane_map.points
        assert pts.shape[0] == 31
        assert np.allclose(pts[:, 1], -0.3, atol=1e-12)
        assert np.allclose(np.diff(pts[:, 0]), 1.0, atol=1e-12)

    def test_offset_noise_sample_std(self):
        track = build_track("straight")
        rng = np.random.default_rng(123)
        noise = NoiseConfig(sigma_delta=0.05)
        state = PlantState(s=100.0, delta=0.3, theta=0.0, v=20.0)
        draws = np.array([
            perceive(state, track, noise, rng, now=0.0).delta_meas - 0.3
            for _ in range(10000)])
        assert 0.045 <= float(np.std(draws, ddof=1)) <= 0.055


class TestRadar:

    def test_direct_readout(self):
        meas = radar_measure(100.0, 120.0, 18.0, 0.3)
        assert meas is not None
        assert meas.D == 20.0
        assert meas.v_l == 18.0
        assert meas.a_l == 0.3

    def test_lead_behind_is_invisible(self):
        assert radar_measure(100.0, 90.0, 18.0) is None

    def test_lead_beyond_range_gate_is_invisible(self):
        assert radar_measure(100.0, 261.0, 18.0) is None
        assert radar_measure(100.0, 260.0, 18.0) is not None

    def test_no_lead_signal(self):
        assert radar_measure(100.0, None) is None


class TestLatencyQueue:

    def test_pop_respects_ready_time(self):
        q = LatencyQueue()
        q.push(5.0, "a")
        q.push(7.0, "b")
        assert q.pop_ready(4.999) == []
        assert q.pop_ready(5.0) == ["a"]
        q.push(7.0, "c")
        assert q.pop_ready(8.0) == ["b", "c"]
        assert q.pop_ready(math.inf) == []

    def test_out_of_order_push_rejected(self):
        q = LatencyQueue()
        q.push(7.0, "a")
        with pytest.raises(ValueError):
            q.push(6.9, "b")


def _short_spec(**kw) -> ScenarioSpec:
    base = dict(track="straight", duration_s=1.2, cruise_speed=20.0,
                start_v=20.0, seed=4)
    base.update(kw)
    return ScenarioSpec(**base)


class TestRunScenario:

    def test_straight_smoke_stays_centered(self):
        log = run_scenario(preset_straight_smoke())
        m = compute_metrics(log)
        assert log.terminal_event == "time_limit"
        assert m["delta_max_abs_m"] < 0.05
        t = log.columns["time_s"]
        assert np.allclose(np.diff(t), 1e-3, atol=1e-12)

    def test_command_first_acts_after_actuation_latency(self):
        # offset start on a clean straight: the first plan happens when the
        # first perception frame is delivered, the command then waits out
        # the actuation delay before the plant sees it
        rates = SimRates()
        spec = _short_spec(start_delta=1.0, duration_s=0.2)
        log = run_scenario(spec, controller="cilqr")
        steer = log.columns["steer_cmd"]
        frame_ready_us = rates.perception_latency_us
        deliver_us = -(-frame_ready_us // rates.plant_us) * rates.plant_us
        act_ready_us = deliver_us + rates.actuation_latency_us
        first_idx = -(-act_ready_us // rates.plant_us)
        assert np.all(steer[:first_idx] == 0.0)
        assert steer[first_idx] != 0.0

    def test_lead_advances_by_exact_travel(self):
        lead = LeadSpec(initial_gap=30.0, base_speed=18.0,
                        amplitude=0.5, period_s=20.0)
        spec = _short_spec(duration_s=2.0, lead=lead)
        log = run_scenario(spec, longitudinal=True)
        t = log.columns["time_s"]
        lead_s = log.columns["s_m"] + log.columns["D_m"]
        expect = lead_s[0] + np.array([lead.travel(float(x)) for x in t])
        assert np.allclose(lead_s, expect, atol=1e-9)

    def test_equal_seeds_give_byte_identical_csv(self, tmp_path):
        lead = LeadSpec(initial_gap=30.0, base_speed=18.0)
        noise = NoiseConfig(sigma_theta=0.005, sigma_delta=0.03,
                            sigma_lane=0.05)
        paths = []
        for i in range(2):
            spec = _short_spec(lead=lead, noise=noise)
            log = run_scenario(spec, controller="vpc-cilqr",
                               longitudinal=True)
            p = tmp_path / f"run{i}.csv"
            log.to_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(_short_spec(), controller="pid")

    def test_duration_and_laps_are_exclusive(self):
        with pytest.raises(ValueError):
            ScenarioSpec(track="straight", duration_s=1.0, laps=1.0)
        with pytest.raises(ValueError):
            ScenarioSpec(track="straight")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            ScenarioSpec(track="straight", duration_s=1.0, seed=-1)

    def test_numpy_integer_seed_accepted(self):
        # seeds are checked as counts are: anything operator.index takes
        assert ScenarioSpec(track="straight", duration_s=1.0,
                            seed=np.int64(3)).seed == 3
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            ScenarioSpec(track="straight", duration_s=1.0, seed=np.int64(-1))
        for seed in (3.0, "3", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ScenarioSpec(track="straight", duration_s=1.0, seed=seed)

    def test_time_limit_has_one_owner(self):
        spec = ScenarioSpec(track="straight", duration_s=1.5)
        assert spec.time_limit_s == 1.5
        spec = ScenarioSpec(track="trackA", laps=0.5, cruise_speed=20.0)
        length = TRACKS["trackA"]().length
        assert spec.time_limit_s == 0.5 * length / 20.0 * 4.0
        log = run_scenario(_short_spec(duration_s=0.25))
        assert log.terminal_event == "time_limit"
        assert log.columns["time_s"][-1] == pytest.approx(0.25, abs=1e-12)

    def test_window_past_the_time_limit_rejected(self):
        # a window that starts at or after the run's end would score NaN
        lead = LeadSpec(initial_gap=30.0, base_speed=17.5)
        laps = ScenarioSpec(track="trackA", laps=0.01, cruise_speed=20.0)
        for kw, start in (({"duration_s": 1.0}, 5.0),
                          ({"duration_s": 1.0}, 1.0),
                          ({"track": "trackA", "laps": 0.01,
                            "cruise_speed": 20.0}, laps.time_limit_s)):
            with pytest.raises(ValueError, match="time limit"):
                ScenarioSpec(**{"track": "straight", "lead": lead, **kw},
                             metrics_t_range=(start, start + 4.0))
        ScenarioSpec(track="straight", duration_s=1.0, lead=lead,
                     metrics_t_range=(0.9, 9.0))

    def test_non_finite_inputs_rejected_naming_the_field(self):
        # refused at construction, not mid-run with an unrelated error
        # (an OverflowError, a NaN-to-int conversion, a non-finite PI,
        # plant or lateral state, a ZeroDivisionError, "A contains
        # non-finite entries") or none (an infinite mass drives off the
        # track, an infinite look-ahead zeroes the preview correction)
        rates = ("plant_us", "perception_us", "vpc_us", "planner_us",
                 "perception_latency_us", "actuation_latency_us")
        cases = [(ScenarioSpec, {"track": "straight", "duration_s": 1.0},
                  ("duration_s", "cruise_speed", "start_s", "start_delta",
                   "start_theta", "start_v")),
                 (ScenarioSpec, {"track": "trackA", "laps": 1.0}, ("laps",)),
                 (LeadSpec, {}, ("initial_gap", "base_speed", "amplitude",
                                 "period_s")),
                 (NoiseConfig, {}, ("sigma_theta", "sigma_delta",
                                    "sigma_lane")),
                 (VehicleParams, {}, ("m", "c_alpha_f", "c_alpha_r", "l_f",
                                      "l_r", "i_z")),
                 (VpcConfig, {}, ("lookahead_L", "k_vpc", "frame_window")),
                 (LateralTuning, {}, ("dt", "r", "centering_weight",
                                      "centering_rate")),
                 (LongTuning, {}, ("dt", "d_ref", "r", "jerk_limit",
                                   "accel_limit", "d_critical", "d_floor")),
                 # a NaN period used to plan accel_cmd NaN every cruise cycle
                 (PiState, {"v_r": 20.0}, ("period",)),
                 (LongitudinalPlanner, {"cruise_speed": 20.0}, ("period",))]
        for cls, base, names in cases:
            for name in names:
                for bad in (math.nan, math.inf, -math.inf):
                    with pytest.raises(ValueError, match=f"{name} must be finite"):
                        cls(**{**base, name: bad})
        for cls in (LateralTuning, LongTuning):
            for bad in ((math.nan, 1.0, 2.0), (20.0, math.inf, 1.0),
                        (20.0, 1.0, -math.inf)):
                with pytest.raises(ValueError, match="q_diag must be finite"):
                    cls(q_diag=bad)
        # the loop's clock counts whole microseconds; a non-finite value
        # reads as every other field's does
        for name in rates:
            for bad in (math.nan, math.inf, -math.inf, 2.5):
                with pytest.raises(ValueError, match=f"{name} must be "
                                   f"{'an integer' if bad == 2.5 else 'finite'}"):
                    SimRates(**{name: bad})

    def test_unknown_track_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown track preset: 'moon'"):
            ScenarioSpec(track="moon", duration_s=1.0)

    def test_bad_metrics_window_rejected_at_construction(self):
        # (5, 1) used to build and score NaN; a 1-tuple failed only when
        # compute_metrics unpacked it
        lead = LeadSpec(initial_gap=30.0, base_speed=17.5)
        for window in ((5.0, 1.0), (-3.0, 0.5), (1.0,), (2.0, 2.0),
                       (0.0, math.nan)):
            with pytest.raises(ValueError, match="metrics_t_range"):
                ScenarioSpec(track="straight", duration_s=1.0, lead=lead,
                             metrics_t_range=window)
        ScenarioSpec(track="straight", duration_s=1.0, lead=lead,
                     metrics_t_range=(0.0, 0.5))

    def test_csv_has_documented_header(self, tmp_path):
        log = run_scenario(_short_spec(duration_s=0.05))
        p = tmp_path / "log.csv"
        log.to_csv(p)
        header = p.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_each_instrumented_name_is_called_through_its_global(
            self, monkeypatch):
        # profilers and the benchmark's tracer time the loop's layers by
        # rebinding these names; a call that bypasses the name is untimed
        import cilqr_drive.lanes as lanes
        import cilqr_drive.sim.scenario as scenario
        calls = {}

        def count(owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                calls.setdefault(attr, []).append(kwargs.get("params"))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for attr in ("perceive", "radar_measure", "step_plant"):
            count(scenario, attr)
        count(lanes, "fit_lane_polynomial")
        count(lanes.VpcEstimator, "observe")
        count(lanes.VpcEstimator, "correction")
        spec = _short_spec(duration_s=0.3,
                           lead=LeadSpec(initial_gap=30.0, base_speed=18.0))
        run_scenario(spec, controller="vpc-cilqr", longitudinal=True)
        assert set(calls) == {"perceive", "radar_measure", "step_plant",
                              "fit_lane_polynomial", "observe", "correction"}
        # the plant gets one resolved VehicleParams for the whole run
        params = calls["step_plant"]
        assert params[0] is not None
        assert all(p is params[0] for p in params)


def _synthetic_log(delta: np.ndarray) -> SimLog:
    n = delta.size
    cols = {c: np.zeros(n) for c in CSV_COLUMNS[:-1]}
    cols["time_s"] = np.arange(n) * 1e-3
    cols["delta_m"] = delta.astype(float)
    cols["D_m"] = np.full(n, np.nan)
    cols["v_l_mps"] = np.full(n, np.nan)
    spec = ScenarioSpec(track="straight", duration_s=n * 1e-3)
    return SimLog(cols, [""] * n, build_track("straight"), spec, "cilqr", "")


class TestComputeMetrics:

    def test_constant_offset_series(self):
        m = compute_metrics(_synthetic_log(np.full(10, 0.1)))
        assert m["delta_mae_m"] == pytest.approx(0.1, abs=1e-15)
        assert m["delta_max_abs_m"] == pytest.approx(0.1, abs=1e-15)

    def test_perfect_tracking_gives_zero_error(self):
        m = compute_metrics(_synthetic_log(np.zeros(10)))
        assert m["delta_mae_m"] == 0.0
        assert m["theta_mae_rad"] == 0.0

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(_synthetic_log(np.zeros(0)))

    def test_solver_time_nan_without_timing(self):
        # a run without log_solver_time logs 0 ms for every cycle
        m = compute_metrics(_synthetic_log(np.zeros(10)))
        assert math.isnan(m["solver_time_mean_ms"])
        assert math.isnan(m["solver_time_max_ms"])

    def test_solver_time_over_timed_cycles(self):
        log = _synthetic_log(np.zeros(4))
        log.columns["solver_time_ms"][:] = [0.0, 2.0, 0.0, 4.5]
        m = compute_metrics(log)
        assert m["solver_time_mean_ms"] == 3.25
        assert m["solver_time_max_ms"] == 4.5

    def test_gap_error_is_scored_against_the_runs_reference_gap(self):
        spec = dataclasses.replace(preset_trackB_following(), duration_s=3.0,
                                   metrics_t_range=None)
        log = run_scenario(spec, longitudinal=True,
                           long_tuning=LongTuning(d_ref=15.0))
        gap = log.columns["D_m"]
        lead = np.isfinite(gap)
        assert lead.any()
        assert compute_metrics(log)["d_mae_m"] == np.mean(
            np.abs(gap[lead] - 15.0))

    def test_collision_before_the_window_shows_in_the_gap(self):
        # the gap extremes cover every row with a lead, so a run that
        # collides before its scoring window still reports the collision
        spec = ScenarioSpec(track="straight", duration_s=10.0,
                            cruise_speed=25.0,
                            lead=LeadSpec(initial_gap=20.0, base_speed=5.0),
                            metrics_t_range=(8.0, 10.0))
        log = run_scenario(spec, longitudinal=False)
        assert log.terminal_event == "collision"
        assert log.columns["time_s"][-1] < 8.0
        m = compute_metrics(log)
        whole = compute_metrics(dataclasses.replace(
            log, spec=dataclasses.replace(spec, metrics_t_range=None)))
        assert m["gap_min_m"] <= 0.0
        assert m["gap_min_m"] == whole["gap_min_m"]
        assert m["gap_last_m"] == whole["gap_last_m"] == m["gap_min_m"]
        assert math.isnan(m["d_mae_m"]) and math.isnan(m["v_mae_mps"])


class TestClosedLoopProperties:
    """Short seeded scenarios off the presets: defined ends, feasible
    plans, steering strictly inside its limit and reproducible logs.

    Draw k runs on the k-th of the four tracks (modulo 4) with the k-th
    controller (modulo 2); draws 0-2 follow a lead, draws 3-5 cruise.
    """

    TRACKS = ("straight", "trackA", "trackB", "circle100")
    NOISE = NoiseConfig(sigma_theta=0.005, sigma_delta=0.03, sigma_lane=0.05)

    @classmethod
    def draw(cls, k: int) -> ScenarioSpec:
        rng = np.random.default_rng(k)
        lead = None
        if k < 3:
            lead = LeadSpec(initial_gap=rng.uniform(20.0, 100.0),
                            base_speed=rng.uniform(40.0, 110.0) / 3.6)
        return ScenarioSpec(track=cls.TRACKS[k % 4], duration_s=1.0,
                            cruise_speed=rng.uniform(40.0, 110.0) / 3.6,
                            start_delta=rng.uniform(-1.0, 1.0),
                            start_theta=rng.uniform(-0.05, 0.05),
                            lead=lead, noise=cls.NOISE, seed=k)

    @pytest.mark.parametrize("k", range(6))
    def test_defined_end_feasible_plans_and_equal_bytes(self, k, tmp_path,
                                                        monkeypatch):
        import cilqr_drive.lateral as lateral
        import cilqr_drive.longitudinal as longitudinal
        margins, kept = [], []

        def spied(real):
            def solve(spec, warm_start=None, config=None):
                result = real(spec, warm_start=warm_start, config=config)
                margins.extend(result.info.log_range_margins)
                if warm_start is not None:
                    # a warm solve keeps its sharpness: its plan is its
                    # start or beats the start's score by its exact cost
                    info = result.info
                    kept.append(np.array_equal(result.trajectory.controls,
                                               warm_start)
                                or info.cost < info.cost_history[0])
                return result
            return solve

        for module in (lateral, longitudinal):
            monkeypatch.setattr(module, "solve", spied(module.solve))
        spec = self.draw(k)
        controller = CONTROLLERS[k % 2]
        csvs = []
        for i in range(2):
            log = run_scenario(spec, controller=controller, longitudinal=True)
            assert log.terminal_event in ("time_limit", "finish",
                                          "collision", "off_track")
            # the emitted steering stays strictly inside +-pi/6; the
            # accelerator is finite and within the planner's clip to
            # [-1, 1], which it may reach, and the brake within [0, 1]
            assert np.max(np.abs(log.columns["steer_cmd"])) < 1.0
            accel, brake = log.columns["accel_cmd"], log.columns["brake_cmd"]
            assert np.isfinite(accel).all() and np.abs(accel).max() <= 1.0
            assert np.all((brake >= 0.0) & (brake <= 1.0))
            log.to_csv(tmp_path / f"run{i}.csv")
            csvs.append((tmp_path / f"run{i}.csv").read_bytes())
        assert margins and kept and all(kept)
        assert min(min(pair) for pair in margins) > 0.0
        assert csvs[0] == csvs[1]
