"""Car-following planner tests.

Covers the PI loop, the gap/speed/accel prediction model against hand
substitution, barrier values at frozen points, a Riccati oracle for the
barrier-free problem, the brake ramp, mode hysteresis, and a kinematic
closed-loop convergence run.
"""
import dataclasses
import math

import numpy as np
import pytest

from cilqr_drive import SolverConfig, barrier_value_and_derivatives, solve
from cilqr_drive.longitudinal import (
    INTEGRAL_LIMIT,
    K_P,
    LeadMeasurement,
    LongTuning,
    LongitudinalPlanner,
    LongitudinalState,
    PiState,
    brake_ramp,
    build_following_problem,
    build_longitudinal_dynamics,
    pi_cruise,
)

from oracles import lqr_dp_solve

TANH_HALF = 0.46211715726000974   # tanh(0.5)
EXP_TWO = 7.38905609893065        # exp(2)
EXP_NEG5 = 0.006737946999085467   # exp(-5)

V_CRUISE = 76.0 / 3.6
V_LEAD = 63.5 / 3.6
PERIOD = 0.00666    # the simulator's planner period, s


class TestPiCruise:
    def test_zero_at_reference(self):
        pi = PiState(v_r=20.0, period=PERIOD)
        assert pi_cruise(pi, 20.0) == 0.0
        assert pi.integral == 0.0

    def test_tanh_squash_at_half(self):
        # the integral starts where this update brings it back to zero,
        # leaving the proportional term alone inside the tanh
        assert K_P == 0.5
        pi = PiState(v_r=10.0, period=PERIOD, integral=-PERIOD)
        out = pi_cruise(pi, 9.0)
        assert pi.integral == 0.0
        assert out == pytest.approx(TANH_HALF, rel=1e-12)
        assert out == pytest.approx(0.46212, abs=1e-5)

    def test_saturates_below_one(self):
        pi = PiState(v_r=100.0, period=PERIOD)
        out = pi_cruise(pi, 0.0)
        assert 0.999 < out <= 1.0

    def test_sign_pushes_toward_reference(self):
        pi = PiState(v_r=20.0, period=PERIOD)
        assert pi_cruise(pi, 15.0) > 0.0   # too slow: throttle
        pi = PiState(v_r=20.0, period=PERIOD)
        assert pi_cruise(pi, 25.0) < 0.0   # too fast: lift

    def test_integral_accumulates_time_weighted_and_clamps(self):
        pi = PiState(v_r=21.0, period=0.1)
        pi_cruise(pi, 20.0)
        assert pi.integral == pytest.approx(0.1)
        pi_cruise(pi, 20.0)
        assert pi.integral == pytest.approx(0.2)
        for _ in range(100):
            pi_cruise(pi, 20.0)
        assert pi.integral == INTEGRAL_LIMIT == 2.0  # anti-windup clamp
        for _ in range(300):
            pi_cruise(pi, 40.0)
        assert pi.integral == -INTEGRAL_LIMIT

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError):
            PiState(v_r=20.0, period=0.0)
        with pytest.raises(ValueError):
            PiState(v_r=float("inf"), period=PERIOD)


class TestDynamics:
    def test_hand_substitution(self):
        dyn = build_longitudinal_dynamics(0.1, v_l=18.0, a_l=0.0)
        nxt = dyn.step(np.array([20.0, 22.0, 0.0]), np.zeros(1))
        np.testing.assert_allclose(nxt, [19.6, 22.0, 0.0], rtol=1e-12)

    def test_equal_speeds_hold_the_gap(self):
        dyn = build_longitudinal_dynamics(0.1, v_l=22.0)
        x = np.array([15.0, 22.0, 0.0])
        for _ in range(10):
            x = dyn.step(x, np.zeros(1))
        assert x[0] == pytest.approx(15.0, abs=1e-12)

    def test_jerk_integrates_into_acceleration(self):
        dyn = build_longitudinal_dynamics(0.1)
        nxt = dyn.step(np.zeros(3), np.array([1.0]))
        assert nxt[2] == pytest.approx(0.1, abs=1e-15)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            build_longitudinal_dynamics(0.0)


class TestFollowingProblem:
    def setup_method(self):
        self.tuning = LongTuning()
        self.lead = LeadMeasurement(v_l=18.0, D=25.0)
        self.state = LongitudinalState(D=25.0, v=21.0, a=0.0)
        self.spec = build_following_problem(self.state, self.lead, self.tuning)

    def test_reference_and_weights(self):
        np.testing.assert_allclose(self.spec.cost.x_ref, [11.0, 18.0, 0.0])
        np.testing.assert_allclose(np.diag(self.spec.cost.Q), [20.0, 20.0, 1.0])
        np.testing.assert_allclose(self.spec.cost.R, [[1.0]])
        assert self.spec.horizon == 30
        assert len(self.spec.barriers) == 4
        assert len(self.spec.terminal_barriers) == 3

    def test_distance_barrier_values(self):
        gap_term = self.spec.barriers[1]
        u = np.zeros(1)
        at_ref = barrier_value_and_derivatives(
            gap_term, np.array([11.0, 18.0, 0.0]), u)
        assert at_ref.value == pytest.approx(1.0, rel=1e-12)
        at_nine = barrier_value_and_derivatives(
            gap_term, np.array([9.0, 18.0, 0.0]), u)
        assert at_nine.value == pytest.approx(EXP_TWO, rel=1e-12)
        assert at_nine.value == pytest.approx(7.389, abs=1e-3)
        # tighter gap costs more, and the pull is toward larger gaps
        assert at_nine.value > at_ref.value
        assert at_nine.grad_x[0] < 0.0

    def test_accel_barriers_mirror_at_zero(self):
        hi, lo = self.spec.barriers[2], self.spec.barriers[3]
        x = np.array([25.0, 21.0, 0.0])
        u = np.zeros(1)
        v_hi = barrier_value_and_derivatives(hi, x, u).value
        v_lo = barrier_value_and_derivatives(lo, x, u).value
        assert v_hi == pytest.approx(EXP_NEG5, rel=1e-12)
        assert v_lo == pytest.approx(EXP_NEG5, rel=1e-12)
        # push grows on the side being approached
        x_push = np.array([25.0, 21.0, 4.0])
        assert barrier_value_and_derivatives(hi, x_push, u).value > v_hi
        assert barrier_value_and_derivatives(lo, x_push, u).value < v_lo

    def test_near_zero_jerk_at_reference_state(self):
        state = LongitudinalState(D=11.0, v=18.0, a=0.0)
        lead = LeadMeasurement(v_l=18.0, D=11.0)
        spec = build_following_problem(state, lead, self.tuning)
        result = solve(spec)
        assert abs(result.trajectory.controls[0, 0]) < 0.1

    def test_barrier_free_matches_dp_oracle(self):
        state = LongitudinalState(D=15.0, v=20.0, a=0.3)
        lead = LeadMeasurement(v_l=18.0, D=15.0)
        spec = build_following_problem(state, lead, self.tuning)
        bare = dataclasses.replace(spec, barriers=[], terminal_barriers=[])
        tight = SolverConfig(max_outer_iterations=60, cost_tolerance=1e-12,
                             regularization_init=1e-10)
        result = solve(bare, config=tight)
        dyn = spec.dynamics
        _, u_opt = lqr_dp_solve(
            dyn.A, dyn.B, dyn.C @ dyn.w, np.diag(self.tuning.q_diag),
            np.array([[1.0]]), np.diag(self.tuning.q_diag),
            spec.cost.x_ref, state.as_vector(), self.tuning.horizon)
        np.testing.assert_allclose(result.trajectory.controls, u_opt,
                                   atol=1e-6)


class TestBrakeRamp:
    def test_ramp_shape(self):
        tn = LongTuning()
        assert brake_ramp(11.0, tn) == 0.0
        assert brake_ramp(5.5, tn) == 0.0
        assert brake_ramp(5.0, tn) == pytest.approx(0.5 / 3.5)
        assert brake_ramp(2.0, tn) == 1.0
        assert brake_ramp(0.5, tn) == 1.0

    def test_tuning_ordering_enforced(self):
        with pytest.raises(ValueError):
            LongTuning(d_critical=1.0, d_floor=2.0)
        with pytest.raises(ValueError):
            LongTuning(d_ref=5.0, d_critical=5.5)


def cold_plan(v, lead, cruise_speed=V_CRUISE):
    """One cold cycle of a fresh planner."""
    return LongitudinalPlanner(cruise_speed=cruise_speed,
                               period=PERIOD).plan(v, lead)


class TestPlanLongitudinal:
    def test_cruise_at_reference_is_idle(self):
        cmd, diag = cold_plan(20.0, None, cruise_speed=20.0)
        assert cmd.accel_cmd == 0.0
        assert cmd.brake_cmd == 0.0
        assert not diag.following

    def test_cruise_cycle_rejects_non_finite_speed(self):
        for v in (math.nan, math.inf):
            with pytest.raises(ValueError, match="state must be finite"):
                cold_plan(v, None)

    def test_close_gap_brakes(self):
        lead = LeadMeasurement(v_l=15.0, D=5.0)
        cmd, diag = cold_plan(16.0, lead)
        assert cmd.brake_cmd > 0.0
        assert diag.following
        assert -1.0 <= cmd.accel_cmd <= 1.0

    def test_jerk_respects_log_barrier(self):
        # hard approach: fast ego, slow lead, short gap
        lead = LeadMeasurement(v_l=15.0, D=12.0)
        _, diag = cold_plan(25.0, lead)
        assert -1.0 < diag.jerk < 1.0
        assert diag.jerk < 0.0  # must plan to decelerate
        seq = diag.jerk_sequence
        assert seq.shape == (30, 1)
        assert np.all(np.abs(seq) < 1.0)

    def test_long_range_pull_saturates_toward_gap(self):
        """Quadratic gap error dominates far from the lead.

        The planned jerk pushes hard toward closing, so the total
        command relies on the clamp; the jerk itself still sits
        strictly inside the barrier.
        """
        lead = LeadMeasurement(v_l=V_LEAD, D=100.0)
        cmd, diag = cold_plan(V_CRUISE, lead)
        assert 0.5 < diag.jerk < 1.0
        assert -1.0 <= cmd.accel_cmd <= 1.0


class TestPlannerWrapper:
    def test_hysteresis_band(self):
        planner = LongitudinalPlanner(cruise_speed=V_CRUISE, period=PERIOD)
        far = LeadMeasurement(v_l=V_LEAD, D=130.0)
        planner.plan(V_CRUISE, far)
        assert not planner.following          # outside engage range
        near = LeadMeasurement(v_l=V_LEAD, D=119.0)
        planner.plan(V_CRUISE, near)
        assert planner.following               # engaged
        planner.plan(V_CRUISE, far)
        assert planner.following               # 130 < release: hold mode
        gone = LeadMeasurement(v_l=V_LEAD, D=141.0)
        planner.plan(V_CRUISE, gone)
        assert not planner.following           # released
        planner.plan(V_CRUISE, near)
        assert planner.following
        planner.plan(V_CRUISE, None)
        assert not planner.following           # lost lead releases too

    def test_reference_capped_while_following(self):
        planner = LongitudinalPlanner(cruise_speed=V_CRUISE, period=PERIOD)
        planner.plan(V_CRUISE, LeadMeasurement(v_l=V_LEAD, D=50.0))
        assert planner.pi.v_r == pytest.approx(V_LEAD)
        planner.plan(V_CRUISE, None)
        assert planner.pi.v_r == pytest.approx(V_CRUISE)

    def test_accel_estimator_averages_three_diffs(self):
        planner = LongitudinalPlanner(cruise_speed=20.0, period=0.01)
        assert planner._estimate_accel(20.0) == 0.0
        assert planner._estimate_accel(20.01) == pytest.approx(1.0)
        planner._estimate_accel(20.02)
        planner._estimate_accel(20.04)
        # diffs are 1, 1, 2 -> mean 4/3
        assert planner._estimate_accel(20.06) == pytest.approx((1 + 2 + 2) / 3)

    def test_rejected_speed_leaves_accel_estimate_clean(self):
        # a non-finite speed is refused before it reaches the three-cycle
        # acceleration estimate, so the following cycles still plan
        planner = LongitudinalPlanner(cruise_speed=V_CRUISE, period=PERIOD)
        planner.plan(20.0, None)
        with pytest.raises(ValueError, match="state must be finite"):
            planner.plan(math.nan, None)
        lead = LeadMeasurement(v_l=V_LEAD, D=30.0)
        for _ in range(3):
            cmd, diag = planner.plan(20.0, lead)
            assert diag.following
            assert math.isfinite(cmd.accel_cmd)

    def test_warm_start_lifecycle(self):
        planner = LongitudinalPlanner(cruise_speed=V_CRUISE, period=PERIOD)
        planner.plan(V_CRUISE, LeadMeasurement(v_l=V_LEAD, D=40.0))
        assert planner._prev.trajectory.controls.shape == (30, 1)
        planner.plan(V_CRUISE, None)
        assert planner._prev is None
        planner.reset()
        assert planner.pi.integral == 0.0

    def test_determinism(self):
        def run():
            p = LongitudinalPlanner(cruise_speed=V_CRUISE, period=PERIOD)
            cmd, _ = p.plan(V_CRUISE, LeadMeasurement(v_l=V_LEAD, D=35.0))
            return cmd.accel_cmd
        assert run() == run()

    def test_cold_cycle_equals_fresh_solve(self):
        # the planner re-aims one validated problem every cycle; a cold
        # cycle must solve exactly the problem built fresh for its state
        planner = LongitudinalPlanner(cruise_speed=V_CRUISE, period=PERIOD)
        for v, lead in ((V_CRUISE, LeadMeasurement(v_l=V_LEAD, D=35.0)),
                        (15.0, LeadMeasurement(v_l=19.0, D=80.0, a_l=0.4))):
            planner.reset()
            cmd, diag = planner.plan(v, lead)
            ref = solve(build_following_problem(
                LongitudinalState(D=lead.D, v=v, a=0.0), lead,
                planner.tuning), config=planner.cold_config)
            np.testing.assert_array_equal(diag.jerk_sequence,
                                          ref.trajectory.controls)
            assert diag.solve_info.cost == ref.info.cost
            pi = PiState(v_r=min(V_CRUISE, lead.v_l), period=PERIOD)
            accel = pi_cruise(pi, v) + ref.trajectory.controls[0, 0]
            assert cmd.accel_cmd == min(max(accel, -1.0), 1.0)
            assert cmd.brake_cmd == brake_ramp(lead.D, planner.tuning)

    def test_default_configs_unchanged(self):
        planner = LongitudinalPlanner(cruise_speed=V_CRUISE, period=PERIOD)
        assert planner.cold_config == SolverConfig()
        assert planner.warm_config == SolverConfig(
            barrier_t_init=1.0e4, max_outer_iterations=4,
            gradient_tolerance=1e-3)

    def test_warm_cycles_start_at_final_sharpness(self, monkeypatch):
        # the first following cycle solves cold; the next continues at the
        # final barrier sharpness within the four-iteration warm budget
        import cilqr_drive.longitudinal as longitudinal_module
        planner = LongitudinalPlanner(cruise_speed=V_CRUISE, period=PERIOD)
        seen = []
        real_solve = longitudinal_module.solve

        def spy(spec, warm_start=None, config=None):
            seen.append(config)
            return real_solve(spec, warm_start=warm_start, config=config)

        monkeypatch.setattr(longitudinal_module, "solve", spy)
        lead = LeadMeasurement(v_l=V_LEAD, D=35.0)
        planner.plan(V_CRUISE, lead)
        _, diag = planner.plan(V_CRUISE, lead)
        assert seen[0] is planner.cold_config
        assert seen[1] is planner.warm_config
        assert seen[1].barrier_t_init == 1e4
        assert diag.solve_info.iterations <= 4
        assert diag.solve_info.barrier_t_scale == 1e4


class TestClosedLoopConvergence:
    def test_approach_settles_at_reference_gap(self):
        """Kinematic loop: ego at 76 km/h catches a 63.5 km/h lead.

        Plant maps accel_cmd to 5 m/s^2 peak acceleration and brake_cmd
        to 8 m/s^2 peak deceleration.  The ego must never touch the
        lead and must settle near the 11 m reference gap at lead speed.
        """
        period = 0.02
        planner = LongitudinalPlanner(cruise_speed=V_CRUISE, period=period)
        v, d = V_CRUISE, 35.0
        gaps, speeds = [], []
        for _ in range(int(40.0 / period)):
            cmd, _ = planner.plan(v, LeadMeasurement(v_l=V_LEAD, D=d))
            acc = 5.0 * cmd.accel_cmd - 8.0 * cmd.brake_cmd
            v = max(v + acc * period, 0.0)
            d += (V_LEAD - v) * period
            assert d > 0.0, "collision"
            gaps.append(d)
            speeds.append(v)
        tail_gap = np.array(gaps[-int(5.0 / period):])
        tail_v = np.array(speeds[-int(5.0 / period):])
        assert np.all(np.abs(tail_v - V_LEAD) < 0.5)
        assert np.all(np.abs(tail_gap - 11.0) < 1.5)
