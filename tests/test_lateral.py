"""Lane-keeping planner tests.

Model coefficients are checked against hand-computed values at 76 km/h,
the barrier-free problem against a dynamic-programming oracle, and the
planner against symmetry and closed-loop regulation checks on its own
prediction model.
"""
import dataclasses
import math

import numpy as np
import pytest

from cilqr_drive import SolverConfig, solve
from cilqr_drive.ilqr import forward_pass
from cilqr_drive.lateral import (
    STEER_LIMIT_RAD,
    LateralPlanner,
    LateralState,
    LateralTuning,
    V_MIN,
    VehicleParams,
    build_lateral_dynamics,
    build_lateral_problem,
)

from oracles import lqr_dp_solve

V_76_KMH = 76.0 / 3.6  # 21.111... m/s
DT = 0.05

# frozen hand-computed coefficients at 76 km/h, dt = 0.05
A22_76 = 1.0 - 16000.0 / (1150.0 * V_76_KMH)    # 0.340961...
A23 = 16000.0 / 1150.0                            # 13.913043...
A24_76 = 800.0 / (1150.0 * V_76_KMH)              # 0.032951...
A42_76 = -800.0 / (2000.0 * V_76_KMH)             # -0.018947...
A43 = -800.0 / 2000.0                             # -0.4
A44_76 = 1.0 + 2112.0 / (2000.0 * V_76_KMH)       # 1.050021...
B1 = 8000.0 / 1150.0                              # 6.956521...
B2 = 10160.0 / 2000.0                             # 5.08

TIGHT = SolverConfig(max_outer_iterations=60, cost_tolerance=1e-12,
                     regularization_init=1e-10)


class TestDynamicsCoefficients:
    def test_matrix_entries_at_76_kmh(self):
        dyn = build_lateral_dynamics(VehicleParams(), V_76_KMH, DT)
        A, B = dyn.A, dyn.B
        np.testing.assert_allclose(A[0], [1.0, DT, 0.0, 0.0], atol=0)
        np.testing.assert_allclose(A[2], [0.0, 0.0, 1.0, DT], atol=0)
        assert A[1, 0] == 0.0 and A[3, 0] == 0.0
        assert A[1, 1] == pytest.approx(A22_76, rel=1e-14)
        assert A[1, 1] == pytest.approx(0.34096, abs=1e-5)
        assert A[1, 2] == pytest.approx(A23, rel=1e-14)
        assert A[1, 3] == pytest.approx(A24_76, rel=1e-14)
        assert A[3, 1] == pytest.approx(A42_76, rel=1e-14)
        assert A[3, 2] == pytest.approx(A43, rel=1e-14)
        assert A[3, 3] == pytest.approx(A44_76, rel=1e-14)
        np.testing.assert_allclose(B[:, 0], [0.0, B1, 0.0, B2], rtol=1e-14)
        assert B[1, 0] == pytest.approx(6.9565, abs=1e-4)
        assert B[3, 0] == pytest.approx(5.08, abs=0)

    def test_speed_scaling_only_hits_v_terms(self):
        slow = build_lateral_dynamics(VehicleParams(), 10.0, DT)
        fast = build_lateral_dynamics(VehicleParams(), 30.0, DT)
        # speed-independent entries agree, 1/v entries scale by 1/3
        assert slow.A[1, 2] == fast.A[1, 2]
        assert slow.A[3, 2] == fast.A[3, 2]
        np.testing.assert_allclose(slow.B, fast.B)
        assert (1.0 - slow.A[1, 1]) == pytest.approx(3.0 * (1.0 - fast.A[1, 1]))
        assert slow.A[3, 1] == pytest.approx(3.0 * fast.A[3, 1])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_lateral_dynamics(VehicleParams(), V_76_KMH, 0.0)
        with pytest.raises(ValueError):
            VehicleParams(m=-1.0)
        with pytest.raises(ValueError):
            LateralState(delta_lat=0.0, theta=3.5)
        with pytest.raises(ValueError):
            LateralState(delta_lat=float("nan"), theta=0.0)


class TestProblemShape:
    def test_problem_dimensions_and_weights(self):
        state = LateralState(delta_lat=0.3, theta=0.01)
        tuning = LateralTuning()
        dyn = build_lateral_dynamics(VehicleParams(), V_76_KMH, tuning.dt)
        spec = build_lateral_problem(state, dyn, tuning)
        assert spec.horizon == 30
        assert spec.n == 4 and spec.m == 1
        np.testing.assert_allclose(np.diag(spec.cost.Q), [20.0, 1.0, 20.0, 1.0])
        np.testing.assert_allclose(spec.cost.R, [[1.0]])
        np.testing.assert_allclose(spec.cost.x_ref, np.zeros(4))
        assert len(spec.barriers) == 2
        assert len(spec.terminal_barriers) == 1

    def test_centering_branch_tracks_offset_sign(self):
        tuning = LateralTuning()
        dyn = build_lateral_dynamics(VehicleParams(), V_76_KMH, tuning.dt)
        left = build_lateral_problem(LateralState(0.4, 0.0), dyn, tuning)
        right = build_lateral_problem(LateralState(-0.4, 0.0), dyn, tuning)
        centered = build_lateral_problem(LateralState(0.0, 0.0), dyn, tuning)
        assert left.barriers[1].sign == 1.0
        assert right.barriers[1].sign == -1.0
        assert centered.barriers[1].sign == 1.0  # zero counts as nonnegative


class TestRiccatiEquivalence:
    def test_barrier_free_problem_matches_dp_oracle(self):
        """With barriers stripped the CILQR solution is the exact LQR one."""
        state = LateralState(delta_lat=0.5, theta=-0.02,
                             delta_lat_rate=0.1, theta_rate=0.0)
        tuning = LateralTuning()
        dyn = build_lateral_dynamics(VehicleParams(), V_76_KMH, tuning.dt)
        spec = build_lateral_problem(state, dyn, tuning)
        bare = dataclasses.replace(spec, barriers=[], terminal_barriers=[])
        result = solve(bare, config=TIGHT)
        assert result.info.converged
        _, u_opt = lqr_dp_solve(
            dyn.A, dyn.B, np.zeros(4), np.diag(tuning.q_diag),
            np.array([[tuning.r]]), np.diag(tuning.q_diag),
            np.zeros(4), state.as_vector(), tuning.horizon)
        np.testing.assert_allclose(result.trajectory.controls, u_opt,
                                   atol=1e-6)


def cold_plan(state, v):
    """One cold cycle of a fresh planner."""
    return LateralPlanner().plan(state, v)


class TestPlanSteering:
    def test_normalization_ties_command_to_angle(self):
        cmd, info = cold_plan(LateralState(1.5, 0.0), V_76_KMH)
        assert cmd.steer_cmd == cmd.delta_rad / (math.pi / 6.0)
        assert info.converged

    def test_centered_state_keeps_wheel_nearly_still(self):
        cmd, _ = cold_plan(LateralState(0.0, 0.0), V_76_KMH)
        assert abs(cmd.steer_cmd) < 0.01

    def test_left_offset_steers_right(self):
        cmd, _ = cold_plan(LateralState(0.5, 0.0), V_76_KMH)
        assert cmd.steer_cmd < 0.0
        assert -1.0 < cmd.steer_cmd

    def test_command_strictly_inside_unit_interval(self):
        # even hopeless initial conditions must respect the steering barrier
        for d in (-3.0, -1.0, 0.2, 2.5):
            for th in (-0.3, 0.0, 0.25):
                cmd, info = cold_plan(LateralState(d, th), V_76_KMH)
                assert -1.0 < cmd.steer_cmd < 1.0
                assert abs(cmd.delta_rad) < math.pi / 6.0
                margins = info.solve_info.log_range_margins
                assert margins and min(min(pair) for pair in margins) > 0.0

    def test_mirror_symmetry(self):
        """Negating the state negates the command to solver precision."""
        state = LateralState(0.5, -0.03, delta_lat_rate=-0.2, theta_rate=0.01)
        mirror = LateralState(-0.5, 0.03, delta_lat_rate=0.2, theta_rate=-0.01)
        cmd_a, _ = cold_plan(state, V_76_KMH)
        cmd_b, _ = cold_plan(mirror, V_76_KMH)
        assert cmd_a.steer_cmd == pytest.approx(-cmd_b.steer_cmd, abs=1e-6)

    def test_speed_clamp_is_flagged_and_finite(self):
        cmd, info = cold_plan(LateralState(0.5, 0.0), 0.2)
        assert info.speed_clamped
        assert math.isfinite(cmd.steer_cmd)
        cmd2, info2 = cold_plan(LateralState(0.5, 0.0), V_76_KMH)
        assert not info2.speed_clamped
        assert cmd.steer_cmd != cmd2.steer_cmd


class TestLateralPlanner:
    def test_warm_start_buffer_shifts(self):
        planner = LateralPlanner()
        planner.plan(LateralState(0.5, 0.0), V_76_KMH)
        assert planner._prev is not None
        assert planner._prev.trajectory.controls.shape == (30, 1)
        planner.reset()
        assert planner._prev is None

    def test_cold_cycle_equals_fresh_solve(self):
        # the planner re-aims one validated problem per centering branch;
        # a cold cycle must solve exactly the problem built fresh for it
        planner = LateralPlanner()
        tuning = planner.tuning
        for state, v in ((LateralState(0.6, -0.02), V_76_KMH),
                         (LateralState(-0.3, 0.04, delta_lat_rate=0.1), 12.0),
                         (LateralState(0.0, 0.01), 0.4)):
            planner.reset()
            cmd, diag = planner.plan(state, v)
            dyn = build_lateral_dynamics(planner.params,
                                         max(v, V_MIN), tuning.dt)
            ref = solve(build_lateral_problem(state, dyn, tuning),
                        config=planner.cold_config)
            assert cmd.delta_rad == ref.trajectory.controls[0, 0]
            assert cmd.steer_cmd == cmd.delta_rad / tuning.steer_limit
            assert diag.solve_info.cost == ref.info.cost
            assert diag.speed_clamped == (v < V_MIN)

    def test_default_configs_unchanged(self):
        planner = LateralPlanner()
        assert planner.cold_config == SolverConfig()
        assert planner.warm_config == SolverConfig(
            barrier_t_init=1.0e4, max_outer_iterations=12,
            gradient_tolerance=1e-3)

    @staticmethod
    def _spy_solve(monkeypatch):
        """Record (spec, warm_start, config, result) of every planner solve."""
        import cilqr_drive.lateral as lateral_module
        seen = []
        real_solve = lateral_module.solve

        def spy(spec, warm_start=None, config=None):
            result = real_solve(spec, warm_start=warm_start, config=config)
            seen.append((spec, warm_start, config, result))
            return result

        monkeypatch.setattr(lateral_module, "solve", spy)
        return seen

    def test_warm_cycles_start_at_final_sharpness(self, monkeypatch):
        # the first cycle solves cold; the next continues at the final
        # barrier sharpness within the twelve-iteration warm budget
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        state = LateralState(0.5, 0.01)
        planner.plan(state, V_76_KMH)
        _, diag = planner.plan(state, V_76_KMH)
        assert seen[0][2] is planner.cold_config
        assert seen[1][2] is planner.warm_config
        assert seen[1][2].barrier_t_init == 1e4
        assert diag.solve_info.iterations <= 12
        assert diag.solve_info.barrier_t_scale == 1e4

    def test_warm_start_per_frame(self, monkeypatch):
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        state = LateralState(0.5, 0.01)
        planner.plan(state, V_76_KMH)
        assert seen[0][1] is None
        # a repeated frame starts from the previous controls as they are
        planner.plan(LateralState(0.5, 0.01), V_76_KMH)
        prev = seen[0][3]
        np.testing.assert_array_equal(seen[1][1], prev.trajectory.controls)
        # a new frame (and speed) starts from the previous plan corrected
        # by its feedback law, rolled out from the new state
        planner.plan(LateralState(0.45, 0.012, delta_lat_rate=-0.1), 20.0)
        spec, warm = seen[2][:2]
        prev = seen[1][3]
        expected = forward_pass(prev.trajectory, prev.gains, 0.0, spec)
        np.testing.assert_array_equal(warm, expected.controls)
        assert not np.array_equal(warm, prev.trajectory.controls)
        # reset drops the carried plan: the next cycle is a fresh planner's
        later = LateralState(-0.2, 0.03, theta_rate=0.01)
        planner.reset()
        cmd, diag = planner.plan(later, 15.0)
        fresh_cmd, fresh_diag = LateralPlanner().plan(later, 15.0)
        assert seen[3][1] is None
        assert cmd == fresh_cmd
        np.testing.assert_array_equal(seen[3][3].trajectory.controls,
                                      seen[4][3].trajectory.controls)
        assert diag.solve_info.cost == fresh_diag.solve_info.cost

    def test_corrected_warm_start_outside_steer_range(self, monkeypatch):
        # a large jump of offset and heading drives U + K dx past the steer
        # limit; the solver's warm-start clip must restore feasibility
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        planner.plan(LateralState(0.1, 0.0), V_76_KMH)
        _, diag = planner.plan(LateralState(1.5, 0.2), V_76_KMH)
        spec, warm = seen[1][:2]
        prev = seen[0][3]
        np.testing.assert_array_equal(
            warm, forward_pass(prev.trajectory, prev.gains, 0.0,
                               spec).controls)
        assert np.max(np.abs(warm)) > STEER_LIMIT_RAD
        assert diag.converged
        margins = diag.solve_info.log_range_margins
        assert margins and all(lo > 0.0 and hi > 0.0 for lo, hi in margins)

    @pytest.mark.parametrize("v", [math.inf, math.nan])
    def test_non_finite_speed_leaves_the_carried_plan_clean(self, v):
        # refused before it touches the carried plan, so the next valid
        # cycle equals that of a planner that never saw the bad call
        planner, clean = LateralPlanner(), LateralPlanner()
        for p in (planner, clean):
            p.plan(LateralState(0.3, 0.01), V_76_KMH)
        with pytest.raises(ValueError, match="lateral speed must be finite"):
            planner.plan(LateralState(0.3, 0.01), v)
        later = LateralState(0.28, 0.012)
        cmd, diag = planner.plan(later, V_76_KMH)
        clean_cmd, clean_diag = clean.plan(later, V_76_KMH)
        assert cmd == clean_cmd
        assert diag.solve_info == clean_diag.solve_info

    def test_repeat_call_is_deterministic(self):
        a, _ = LateralPlanner().plan(LateralState(0.7, 0.02), V_76_KMH)
        b, _ = LateralPlanner().plan(LateralState(0.7, 0.02), V_76_KMH)
        assert a.steer_cmd == b.steer_cmd

    def test_closed_loop_regulates_half_meter_offset(self):
        """Receding-horizon loop on the prediction model itself.

        From 0.5 m offset at 76 km/h the offset must shrink below 0.05 m
        within 5 s (100 cycles at 20 Hz) without wild excursions.
        """
        planner = LateralPlanner()
        dyn = build_lateral_dynamics(planner.params, V_76_KMH, DT)
        x = np.array([0.5, 0.0, 0.0, 0.0])
        worst = 0.0
        for _ in range(100):
            state = LateralState(x[0], x[2], delta_lat_rate=x[1],
                                 theta_rate=x[3])
            cmd, _ = planner.plan(state, V_76_KMH)
            x = dyn.step(x, np.array([cmd.delta_rad]))
            worst = max(worst, abs(x[0]))
        assert abs(x[0]) < 0.05
        assert worst <= 0.55
