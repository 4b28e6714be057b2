"""Bit-exact pins of the simulator and lane-map hot paths.

The closed-loop CSV is reproducible byte for byte, so the vectorized and
unrolled forms in the package must equal the plain per-element forms in
tests/oracles.py exactly, not to a tolerance.
"""

import math

import numpy as np
import pytest

from cilqr_drive.lanes import (BIN_WIDTH_M, SENSING_RANGE_M, LaneMap,
                               average_lane_maps)
from cilqr_drive.lateral import VehicleParams
from cilqr_drive.sim import (OffTrackError, PlantState, ScenarioSpec, SimLog,
                             build_track, step_plant)
from cilqr_drive.sim.plant import (ACCEL_GAIN, BRAKE_GAIN, OFF_TRACK_M,
                                   _V_SLIP_MIN)
from cilqr_drive.sim.scenario import CSV_COLUMNS

from oracles import (bin_means_per_bin, csv_per_cell, curvature_scalar,
                     heading_scalar, rk4_bicycle_step)


def _same_bin_means(window):
    out = average_lane_maps(window)
    ref = bin_means_per_bin(np.vstack([m.points for m in window]),
                            BIN_WIDTH_M)
    assert out.points.shape == ref.shape
    assert np.array_equal(out.points, ref)
    assert out.timestamp == max(m.timestamp for m in window)


class TestBinMeans:

    @pytest.mark.parametrize("seed", range(40))
    def test_random_pooled_windows(self, seed):
        rng = np.random.default_rng(seed)
        window = []
        for ts in range(int(rng.integers(1, 9))):
            n = int(rng.integers(0, 60))
            x = np.sort(rng.uniform(0.0, SENSING_RANGE_M, n))
            y = 0.01 * x * x + rng.normal(0.0, 0.05, n)
            window.append(LaneMap(np.column_stack([x, y]), float(ts)))
        _same_bin_means(window)

    def test_one_bin_window(self):
        rng = np.random.default_rng(1)
        window = [LaneMap(np.column_stack([rng.uniform(0.0, 0.49, 40),
                                           rng.normal(0.0, 1.0, 40)]),
                          float(ts)) for ts in range(8)]
        _same_bin_means(window)
        assert average_lane_maps(window).points.shape == (1, 2)

    def test_empty_windows(self):
        empty = LaneMap(np.zeros((0, 2)), 2.0)
        out = average_lane_maps([empty, LaneMap(np.zeros((0, 2)), 1.0)])
        assert out.points.shape == (0, 2)
        assert out.timestamp == 2.0
        # an empty frame pooled with a full one adds nothing
        full = LaneMap(np.array([[1.0, 0.2], [1.2, 0.4], [7.0, 1.0]]), 3.0)
        _same_bin_means([empty, full])

    def test_points_at_the_sensing_range(self):
        pts = np.array([[SENSING_RANGE_M, 0.5], [SENSING_RANGE_M, 0.7],
                        [SENSING_RANGE_M - 1e-9, 0.1], [0.0, -0.3],
                        [0.0, 0.3], [BIN_WIDTH_M, 2.0]])
        _same_bin_means([LaneMap(pts, 0.0), LaneMap(pts[::-1], 1.0)])


def _same_step(state, steer, accel_cmd, brake_cmd, track, dt=1e-3,
               params=None):
    p = params or VehicleParams()
    ref = rk4_bicycle_step(
        (state.s, state.delta, state.theta, state.v, state.yaw_rate,
         state.v_lat), steer, accel_cmd, brake_cmd, dt, track.curvature, p,
        ACCEL_GAIN, BRAKE_GAIN, _V_SLIP_MIN)
    out = step_plant(state, steer, accel_cmd, brake_cmd, dt, track,
                     params=params)
    assert (out.s, out.delta, out.theta, out.v, out.yaw_rate, out.v_lat,
            out.a) == ref
    return out


class TestPlantStep:

    @pytest.mark.parametrize("seed", range(20))
    def test_random_states_on_track_a(self, seed):
        rng = np.random.default_rng(seed)
        track = build_track("trackA")
        state = PlantState(s=rng.uniform(-50.0, 3000.0),
                           delta=rng.uniform(-3.0, 3.0),
                           theta=rng.uniform(-0.3, 0.3),
                           v=rng.uniform(0.0, 35.0),
                           yaw_rate=rng.uniform(-0.5, 0.5),
                           v_lat=rng.uniform(-1.0, 1.0))
        _same_step(state, rng.uniform(-0.5, 0.5), rng.uniform(-1.5, 1.5),
                   rng.uniform(-0.5, 1.5), track,
                   dt=rng.uniform(1e-4, 2e-3))

    def test_custom_vehicle(self):
        params = VehicleParams(m=1800.0, c_alpha_f=60000.0, i_z=3100.0)
        _same_step(PlantState(s=1300.0, delta=0.4, theta=0.05, v=25.0,
                              yaw_rate=0.2, v_lat=0.3),
                   0.1, 0.2, 0.0, build_track("trackA"), params=params)

    def test_crawl_regime(self):
        track = build_track("circle100")
        state = PlantState(s=10.0, delta=0.2, theta=0.1, v=0.3,
                           yaw_rate=0.4, v_lat=-0.2)
        assert state.v < _V_SLIP_MIN
        _same_step(state, 0.3, 0.0, 0.0, track)

    def test_full_brake_clamps_speed_to_zero(self):
        track = build_track("straight")
        state = PlantState(s=5.0, v=0.004)
        out = _same_step(state, 0.0, 0.0, 1.0, track)
        assert out.v == 0.0
        # at a standstill the brake holds the car, it does not reverse it
        again = _same_step(out, 0.0, -1.0, 1.0, track)
        assert again.v == 0.0 and again.s == out.s

    def test_road_frame_singularity_guard(self):
        # delta at 1 / kappa puts the ego on the centre of curvature
        track = build_track(segments=[(100.0, 0.2, 0.2)], closed=True)
        state = PlantState(s=1.0, delta=5.0, v=2.0, v_lat=0.1)
        assert abs(1.0 - track.curvature(state.s) * state.delta) < 1e-6
        _same_step(state, 0.0, 0.0, 0.0, track)

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_off_track_raises_where_the_reference_crosses(self, side):
        # one step at 20 m/s and theta = 0.3 moves delta by about 6 mm
        track = build_track("straight")
        for gap, crosses in ((0.010, False), (0.004, True)):
            state = PlantState(s=5.0, delta=side * (OFF_TRACK_M - gap),
                               theta=side * 0.3, v=20.0)
            ref = rk4_bicycle_step(
                (state.s, state.delta, state.theta, state.v, 0.0, 0.0),
                0.0, 0.0, 0.0, 1e-3, track.curvature, VehicleParams(),
                ACCEL_GAIN, BRAKE_GAIN, _V_SLIP_MIN)
            assert (abs(ref[1]) >= OFF_TRACK_M) == crosses
            if crosses:
                with pytest.raises(OffTrackError):
                    step_plant(state, 0.0, 0.0, 0.0, 1e-3, track)
            else:
                _same_step(state, 0.0, 0.0, 0.0, track)


def _log(columns, events):
    track = build_track("straight")
    return SimLog(columns, events, track,
                  ScenarioSpec(track="straight", duration_s=1.0), "cilqr")


class TestCsvRows:

    def test_special_values_and_events(self, tmp_path):
        cells = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300,
                 123456789012.0, 0.1 + 0.2, -2.5e-7, 1.0 / 3.0, 7.0]
        n = len(cells)
        rng = np.random.default_rng(0)
        columns = {}
        for j, name in enumerate(CSV_COLUMNS[:-1]):
            columns[name] = np.array(np.roll(cells, j)) * (
                rng.uniform(0.5, 2.0) if j % 2 else 1.0)
        events = [""] * (n - 3) + ["collision", "off_track", "time_limit"]
        path = tmp_path / "log.csv"
        _log(columns, events).to_csv(str(path))
        ref = csv_per_cell(CSV_COLUMNS,
                           [columns[c] for c in CSV_COLUMNS[:-1]], events)
        assert path.read_text() == ref
        assert "nan" in ref and "-inf" in ref and "-0," in ref
        assert "1e-300" in ref and "1.23456789e+11" in ref

    def test_random_rows(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 300
        columns = {c: rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
                   for c in CSV_COLUMNS[:-1]}
        events = [""] * (n - 1) + ["finish"]
        path = tmp_path / "log.csv"
        _log(columns, events).to_csv(str(path))
        assert path.read_text() == csv_per_cell(
            CSV_COLUMNS, [columns[c] for c in CSV_COLUMNS[:-1]], events)


CLOTHOID_CHAIN = [(30.0, 0.0, 0.03), (50.0, 0.03, 0.03), (30.0, 0.03, 0.0),
                  (40.0, 0.0, -0.01)]


class TestCurvatureAndHeading:

    @pytest.mark.parametrize("preset", ["trackA", "trackB", "straight",
                                        "circle100", "open_chain",
                                        "closed_chain"])
    def test_vector_and_scalar_forms_equal_the_reference(self, preset):
        if preset == "open_chain":
            track = build_track(segments=CLOTHOID_CHAIN, closed=False)
        elif preset == "closed_chain":
            track = build_track(segments=CLOTHOID_CHAIN[:3], closed=True)
        else:
            track = build_track(preset)
        segs, closed = list(track.segments), track.closed
        breaks = np.concatenate(([0.0], np.cumsum([g[0] for g in segs])))
        rng = np.random.default_rng(2)
        s = np.concatenate([
            breaks, np.nextafter(breaks, -np.inf),
            np.nextafter(breaks, np.inf),
            [-1e-20, -0.5, -track.length, -3.5 * track.length,
             track.length, track.length + 1e-9, 2.0 * track.length + 3.0],
            rng.uniform(-2.0 * track.length, 3.0 * track.length, 200)])
        kappa = track.curvature_many(s)
        psi = track.heading_many(s)
        for j, sj in enumerate(s.tolist()):
            k_ref = curvature_scalar(segs, closed, sj)
            h_ref = heading_scalar(segs, closed, sj)
            assert kappa[j] == k_ref and track.curvature(sj) == k_ref, sj
            assert psi[j] == h_ref, sj
