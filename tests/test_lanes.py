"""Lane fitting, curvature, and preview-correction tests.

Expected values marked with their origin: closed-form numbers are
frozen as literals; Monte Carlo comparisons draw their own seeds.
"""

import math

import numpy as np
import pytest

from cilqr_drive.lanes import (
    BIN_WIDTH_M,
    STEER_CMD_MAX,
    ExtrapolationError,
    LaneMap,
    LanePolynomial,
    PreviewCorrection,
    VpcConfig,
    VpcEstimator,
    apply_vpc,
    average_lane_maps,
    curvature_at,
    fit_lane_polynomial,
    preview_correction,
)

# 0.05 rad / (pi/6): the normalized magnitude of a 0.05 rad shift
SHIFT_005_NORM = 0.09549296585513722
# atan(2.64 * 0.01)
ATAN_00264 = 0.026393869315500987
# 0.01 / (1 + 0.1^2)^1.5: parabola y = 0.005 x^2 at x = 10
KAPPA_PARABOLA_10 = 0.009851853368415734


def straight_map(y: float = 0.0, n: int = 21, ts: float = 0.0) -> LaneMap:
    x = np.linspace(0.0, 20.0, n)
    return LaneMap(np.column_stack([x, np.full(n, y)]), ts)


def parabola_map(a: float, b: float = 0.0, c: float = 0.0,
                 ts: float = 0.0) -> LaneMap:
    x = np.linspace(0.0, 15.0, 16)
    y = a * x * x + b * x + c
    return LaneMap(np.column_stack([x, y]), ts)


def circle_map(radius: float, noise: float = 0.0, rng=None,
               ts: float = 0.0) -> LaneMap:
    # left-turning circle through the origin, center on the +y axis
    x = np.arange(0.0, 15.5, 1.0)
    y = radius - np.sqrt(radius * radius - x * x)
    if noise:
        y = y + rng.normal(0.0, noise, size=x.shape)
    return LaneMap(np.column_stack([x, y]), ts)


class TestLaneMap:
    def test_accepts_range_and_rejects_outside(self):
        LaneMap(np.array([[0.0, 1.0], [30.0, -1.0]]), 0.0)
        with pytest.raises(ValueError):
            LaneMap(np.array([[-0.1, 0.0]]), 0.0)
        with pytest.raises(ValueError):
            LaneMap(np.array([[30.1, 0.0]]), 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LaneMap(np.array([[1.0, np.nan]]), 0.0)
        with pytest.raises(ValueError):
            LaneMap(np.array([[1.0, 0.0]]), math.inf)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            LaneMap(np.zeros((3, 3)), 0.0)


class TestAverageLaneMaps:
    def test_identical_maps_pass_through(self):
        m = straight_map(y=0.7)
        out = average_lane_maps([m, m, m])
        np.testing.assert_allclose(out.points, m.points, rtol=0, atol=1e-12)

    def test_symmetric_noise_cancels(self):
        up = straight_map(y=0.1, ts=1.0)
        down = straight_map(y=-0.1, ts=2.0)
        out = average_lane_maps([up, down])
        assert np.all(out.points[:, 1] == 0.0)
        assert out.timestamp == 2.0

    def test_timestamp_is_newest(self):
        out = average_lane_maps([straight_map(ts=3.0), straight_map(ts=1.0)])
        assert out.timestamp == 3.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            average_lane_maps([])

    def test_points_in_different_bins_are_kept_apart(self):
        a = LaneMap(np.array([[1.0, 1.0]]), 0.0)
        b = LaneMap(np.array([[1.0 + BIN_WIDTH_M, 3.0]]), 1.0)
        out = average_lane_maps([a, b])
        assert out.points.shape == (2, 2)

    def test_averaging_reduces_fit_error_and_variance(self):
        # eight averaged noisy frames of a 100 m arc vs one frame:
        # both the mean curvature error and the estimate variance must
        # drop (aggregate over 100 seeds)
        single_err, avg_err = [], []
        single_est, avg_est = [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            frames = [circle_map(100.0, noise=0.05, rng=rng, ts=float(i))
                      for i in range(8)]
            p1 = fit_lane_polynomial(frames[0])
            pa = fit_lane_polynomial(average_lane_maps(frames))
            k1 = curvature_at(p1, 0.0)
            ka = curvature_at(pa, 0.0)
            single_err.append(abs(k1 - 0.01))
            avg_err.append(abs(ka - 0.01))
            single_est.append(k1)
            avg_est.append(ka)
        assert np.mean(avg_err) < np.mean(single_err)
        assert np.var(avg_est) < np.var(single_est)


class TestFitLanePolynomial:
    def test_constant_lane_exact(self):
        poly = fit_lane_polynomial(straight_map(y=2.0))
        assert poly is not None
        assert abs(poly.a) < 1e-12 and abs(poly.b) < 1e-12
        assert abs(poly.c - 2.0) < 1e-12
        assert poly.rms < 1e-12

    def test_exact_quadratic_recovered(self):
        poly = fit_lane_polynomial(parabola_map(0.005, 0.01, 1.0))
        assert poly is not None
        assert abs(poly.a - 0.005) < 1e-9
        assert abs(poly.b - 0.01) < 1e-9
        assert abs(poly.c - 1.0) < 1e-9

    def test_circle_curvature_within_5_percent(self):
        poly = fit_lane_polynomial(circle_map(100.0))
        assert poly is not None
        kappa = curvature_at(poly, 0.0)
        assert abs(kappa - 0.01) / 0.01 < 0.05

    def test_too_few_points_unavailable(self):
        x = np.linspace(0.0, 10.0, 5)
        m = LaneMap(np.column_stack([x, np.zeros(5)]), 0.0)
        assert fit_lane_polynomial(m) is None

    def test_short_span_unavailable(self):
        x = np.linspace(0.0, 4.9, 10)
        m = LaneMap(np.column_stack([x, np.zeros(10)]), 0.0)
        assert fit_lane_polynomial(m) is None

    def test_high_residual_unavailable(self):
        x = np.linspace(0.0, 14.0, 15)
        y = np.where(np.arange(15) % 2 == 0, 1.0, -1.0)
        m = LaneMap(np.column_stack([x, y]), 0.0)
        assert fit_lane_polynomial(m) is None

    def test_far_points_excluded_from_fit(self):
        # beyond the fit window the lane bends hard; the fit must not see it
        x_near = np.linspace(0.0, 15.0, 16)
        x_far = np.array([20.0, 25.0, 30.0])
        y = np.concatenate([np.zeros(16), np.full(3, 5.0)])
        m = LaneMap(np.column_stack([np.concatenate([x_near, x_far]), y]), 0.0)
        poly = fit_lane_polynomial(m)
        assert poly is not None
        assert poly.valid_range[1] <= 15.0
        assert abs(poly.a) < 1e-12


class TestCurvatureAt:
    def test_straight_line_zero(self):
        poly = LanePolynomial(0.0, 0.3, -1.0, (0.0, 20.0))
        for x in (0.0, 5.0, 20.0):
            assert curvature_at(poly, x) == 0.0

    def test_parabola_apex(self):
        poly = LanePolynomial(0.005, 0.0, 0.0, (0.0, 20.0))
        assert abs(curvature_at(poly, 0.0) - 0.01) < 1e-15

    def test_parabola_matches_analytic_everywhere(self):
        poly = LanePolynomial(0.005, 0.0, 0.0, (0.0, 20.0))
        assert abs(curvature_at(poly, 10.0) - KAPPA_PARABOLA_10) < 1e-12
        for x in np.linspace(0.0, 20.0, 41):
            fp = 0.01 * x
            expect = 0.01 / (1.0 + fp * fp) ** 1.5
            assert abs(curvature_at(poly, float(x)) - expect) < 1e-12

    def test_sign_follows_bend_direction(self):
        left = LanePolynomial(0.005, 0.0, 0.0, (0.0, 20.0))
        right = LanePolynomial(-0.005, 0.0, 0.0, (0.0, 20.0))
        assert curvature_at(left, 5.0) > 0.0
        assert curvature_at(right, 5.0) < 0.0

    def test_extrapolation_refused(self):
        poly = LanePolynomial(0.005, 0.0, 0.0, (0.0, 12.0))
        with pytest.raises(ExtrapolationError):
            curvature_at(poly, 12.5)
        with pytest.raises(ExtrapolationError):
            curvature_at(poly, -0.1)


class TestPreviewCorrection:
    def test_straight_lane_no_shift(self):
        poly = fit_lane_polynomial(straight_map())
        corr = preview_correction(0.12, poly)
        assert corr.delta_shift == 0.0
        assert corr.delta_p == 0.12

    def test_curvature_step_shift(self):
        corr = PreviewCorrection(0.0, 0.01, 0.0, math.atan(2.64 * 0.01),
                                 math.atan(2.64 * 0.01), math.atan(2.64 * 0.01))
        assert abs(corr.delta_shift - ATAN_00264) < 1e-15

    def test_apex_ahead_positive_shift(self):
        # left bend with its apex at the look-ahead point: the slope
        # shrinks toward the apex, so curvature grows with x there
        x = np.linspace(0.0, 15.0, 31)
        y = 0.005 * (x - 10.0) ** 2
        m = LaneMap(np.column_stack([x, y]), 0.0)
        corr = preview_correction(0.0, fit_lane_polynomial(m))
        assert corr.kappa_1 > corr.kappa_0
        assert corr.delta_shift > 0.0
        assert corr.delta_p == corr.delta_shift

    def test_constant_arc_shift_below_fit_noise(self):
        corr = preview_correction(0.0, fit_lane_polynomial(circle_map(100.0)))
        assert abs(corr.delta_shift) < 1e-3

    def test_missing_fit_passes_through(self):
        corr = preview_correction(0.2, None)
        assert corr.delta_shift == 0.0
        assert corr.kappa_0 == 0.0 and corr.kappa_1 == 0.0
        assert corr.delta_p == 0.2

    def test_fit_shorter_than_lookahead_passes_through(self):
        poly = LanePolynomial(0.005, 0.0, 0.0, (0.0, 8.0))
        corr = preview_correction(0.0, poly, VpcConfig(lookahead_L=10.0))
        assert corr.delta_shift == 0.0

    def test_angle_invariant_enforced(self):
        with pytest.raises(ValueError):
            PreviewCorrection(0.0, 0.0, 2.0, 0.0, 0.0, 0.0)


class TestApplyVpc:
    def test_positive_branch(self):
        out = apply_vpc(0.2, 0.05)
        assert abs(out - (0.2 + SHIFT_005_NORM)) < 1e-15

    def test_negative_branch(self):
        out = apply_vpc(-0.3, 0.05)
        assert abs(out - (-0.3 - SHIFT_005_NORM)) < 1e-15

    def test_zero_shift_identity(self):
        assert apply_vpc(0.4, 0.0) == 0.4
        assert apply_vpc(-0.4, 0.0) == -0.4

    def test_shift_sign_is_ignored(self):
        # the magnitude pushes along the command's own direction
        assert apply_vpc(0.2, -0.05) == apply_vpc(0.2, 0.05)
        assert apply_vpc(-0.2, -0.05) == apply_vpc(-0.2, 0.05)

    def test_clamped_to_unit_range(self):
        assert apply_vpc(0.95, 0.2) == STEER_CMD_MAX
        assert apply_vpc(-0.95, 0.2) == -STEER_CMD_MAX
        assert apply_vpc(1.0, 0.0) == STEER_CMD_MAX
        assert apply_vpc(-1.0, 0.0) == -STEER_CMD_MAX

    def test_rejects_out_of_range_command(self):
        with pytest.raises(ValueError):
            apply_vpc(1.2, 0.0)

    def test_never_flips_sign_for_small_shifts(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            cmd = rng.uniform(-1.0, 1.0)
            if cmd == 0.0:
                continue
            # shift smaller than the command magnitude in normalized units
            shift = rng.uniform(0.0, abs(cmd)) * (math.pi / 6)
            out = apply_vpc(cmd, shift)
            assert math.copysign(1.0, out) == math.copysign(1.0, cmd)


class TestVpcEstimator:
    def test_empty_estimator_passes_through(self):
        est = VpcEstimator()
        corr = est.correction(0.3)
        assert corr.delta_shift == 0.0
        assert corr.delta_p == 0.3

    @staticmethod
    def fed(frames, window: int = 8) -> VpcEstimator:
        est = VpcEstimator(VpcConfig(frame_window=window))
        for f in frames:
            est.observe(f)
        return est

    def test_window_rolls_at_capacity(self):
        # each frame bends differently, so every window averages to its
        # own curvature and the correction tells the windows apart
        frames = [circle_map(50.0 + 10.0 * i, ts=float(i)) for i in range(11)]
        got = self.fed(frames).correction()
        assert got.delta_shift != 0.0
        assert got == self.fed(frames[3:]).correction()
        # a window that kept one frame too many
        assert got != self.fed(frames[2:], window=9).correction()

    def test_repeated_timestamp_deduplicated(self):
        first = circle_map(50.0, ts=5.0)
        repeat = circle_map(200.0, ts=5.0)
        got = self.fed([first, repeat]).correction()
        assert got == self.fed([first]).correction()
        assert got != self.fed([repeat]).correction()

    def test_straight_frames_yield_zero_shift(self):
        est = VpcEstimator()
        for i in range(8):
            est.observe(straight_map(ts=float(i)))
        assert est.correction().delta_shift == 0.0

    def test_non_integer_window_rejected_naming_the_field(self):
        # deque used to refuse it with "an integer is required"
        for bad in (2.5, 8.0):
            with pytest.raises(ValueError,
                               match="frame_window must be an integer"):
                VpcConfig(frame_window=bad)
        assert VpcEstimator(VpcConfig(frame_window=np.int64(3))).correction(
            0.2).delta_p == 0.2

    def test_deterministic_given_same_frames(self):
        rng = np.random.default_rng(3)
        frames = [circle_map(100.0, noise=0.05, rng=rng, ts=float(i))
                  for i in range(8)]
        a, b = VpcEstimator(), VpcEstimator()
        for f in frames:
            a.observe(f)
            b.observe(f)
        assert a.correction(0.1) == b.correction(0.1)


class TestVpcFitCache:
    """The estimator fits once per window and reuses the fit between."""

    @pytest.fixture
    def fits(self, monkeypatch):
        import cilqr_drive.lanes as lanes
        calls = []
        original = lanes.fit_lane_polynomial

        def counting(lane_map):
            calls.append(lane_map.timestamp)
            return original(lane_map)

        monkeypatch.setattr(lanes, "fit_lane_polynomial", counting)
        return calls

    @staticmethod
    def frames(n, noise=0.05, seed=4):
        rng = np.random.default_rng(seed)
        return [circle_map(100.0, noise=noise, rng=rng, ts=float(i))
                for i in range(n)]

    def test_ticks_without_a_new_frame_reuse_the_fit(self, fits):
        est = VpcEstimator()
        for f in self.frames(3):
            est.observe(f)
        first = est.correction(0.1)
        for _ in range(5):
            assert est.correction(0.1) == first
        assert len(fits) == 1

    def test_new_frame_roll_and_reset_refit_and_repeats_do_not(self, fits):
        frames = self.frames(4)
        est = VpcEstimator(VpcConfig(frame_window=3))
        for f in frames[:3]:
            est.observe(f)
        est.correction()
        assert len(fits) == 1
        est.observe(frames[2])           # same timestamp: a repeat
        est.correction()
        assert len(fits) == 1
        est.observe(frames[3])           # window full: the oldest rolls out
        rolled = est.correction(0.2)
        assert len(fits) == 2
        fresh = VpcEstimator(VpcConfig(frame_window=3))
        for f in frames[1:]:
            fresh.observe(f)
        assert rolled == fresh.correction(0.2)
        # a new estimator starts empty: no fit until its first frame, and
        # a timestamp another estimator has seen is no repeat for it
        est = VpcEstimator(VpcConfig(frame_window=3))
        assert est.correction(0.2) == preview_correction(0.2, None)
        assert len(fits) == 3
        est.observe(frames[3])
        est.correction()
        assert len(fits) == 4

    @pytest.mark.parametrize("noise", [0.05, 1.0])
    def test_corrections_equal_a_fresh_estimator(self, noise):
        # at 1 m of noise most windows fail the RMS check: their fit is None
        est = VpcEstimator()
        window, unfit = [], 0
        for f in self.frames(11, noise=noise):
            est.observe(f)
            window = (window + [f])[-est.config.frame_window:]
            unfit += fit_lane_polynomial(average_lane_maps(window)) is None
            for delta_now in (-0.2, 0.0, 0.05, 0.3):
                fresh = VpcEstimator()
                for g in window:
                    fresh.observe(g)
                assert est.correction(delta_now) == fresh.correction(delta_now)
        assert (unfit > 0) == (noise > 0.5)
