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
from cilqr_drive.ilqr import ProblemSpec, WARM_CONFIG, rollout, total_cost
from cilqr_drive.lateral import (
    CLIP_MARGIN,
    COLD_CONFIG,
    MODEL_SPEED_RTOL,
    STEER_LIMIT_RAD,
    LateralPlanner,
    LateralState,
    LateralTuning,
    V_MIN,
    VehicleParams,
    build_lateral_dynamics,
    build_lateral_problem,
)
from cilqr_drive.sim import ScenarioSpec, preset_trackB_following, run_scenario

from oracles import affine_step, lqr_dp_solve, newton_step_reference

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

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.inf, -math.inf, math.nan])
    def test_rejects_a_bad_speed_or_step_naming_it(self, bad):
        # a zero speed divided by zero, and -3, inf and NaN were taken or
        # reported as "A contains non-finite entries"
        for name, args in (("v", (bad, DT)), ("dt", (V_76_KMH, bad))):
            with pytest.raises(ValueError,
                               match=f"^{name} must be positive and finite$"):
                build_lateral_dynamics(VehicleParams(), *args)


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
        # the branch is the sign of the selector on the offset
        assert left.barriers[1].sel_x[0] == 1.0
        assert right.barriers[1].sel_x[0] == -1.0
        # zero counts as nonnegative
        assert centered.barriers[1].sel_x[0] == 1.0


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
        cmd, result = cold_plan(LateralState(1.5, 0.0), V_76_KMH)
        assert cmd.steer_cmd == cmd.delta_rad / (math.pi / 6.0)
        assert result.info.converged

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
                cmd, result = cold_plan(LateralState(d, th), V_76_KMH)
                assert -1.0 < cmd.steer_cmd < 1.0
                assert abs(cmd.delta_rad) < math.pi / 6.0
                margins = result.info.log_range_margins
                assert margins and min(min(pair) for pair in margins) > 0.0

    def test_mirror_symmetry(self):
        """Negating the state negates the command to solver precision."""
        state = LateralState(0.5, -0.03, delta_lat_rate=-0.2, theta_rate=0.01)
        mirror = LateralState(-0.5, 0.03, delta_lat_rate=0.2, theta_rate=-0.01)
        cmd_a, _ = cold_plan(state, V_76_KMH)
        cmd_b, _ = cold_plan(mirror, V_76_KMH)
        assert cmd_a.steer_cmd == pytest.approx(-cmd_b.steer_cmd, abs=1e-6)

    def test_speed_below_v_min_plans_as_at_v_min(self):
        # the model divides by v, so slower speeds are planned at V_MIN:
        # the same command, controls, iterations and cost, bit for bit
        state = LateralState(0.5, 0.0)
        ref_cmd, ref = cold_plan(state, V_MIN)
        assert math.isfinite(ref_cmd.steer_cmd)
        for v in (0.0, 0.2, 0.99):
            cmd, result = cold_plan(state, v)
            assert cmd == ref_cmd
            np.testing.assert_array_equal(result.trajectory.controls,
                                          ref.trajectory.controls)
            assert result.info.iterations == ref.info.iterations
            assert result.info.cost == ref.info.cost
        fast_cmd, fast = cold_plan(state, V_76_KMH)
        assert fast_cmd.steer_cmd != ref_cmd.steer_cmd
        assert fast.info.cost != ref.info.cost


def _mirror(state: LateralState) -> LateralState:
    return LateralState(-state.delta_lat, -state.theta,
                        delta_lat_rate=-state.delta_lat_rate,
                        theta_rate=-state.theta_rate)


def _random_left_state(rng) -> LateralState:
    return LateralState(float(rng.uniform(0.05, 1.5)),
                        float(rng.uniform(-0.2, 0.2)),
                        delta_lat_rate=float(rng.uniform(-0.5, 0.5)),
                        theta_rate=float(rng.uniform(-0.1, 0.1)))


def _assert_mirrored(neg, pos):
    """neg is pos negated, bit for bit."""
    np.testing.assert_array_equal(neg.trajectory.states,
                                  -pos.trajectory.states)
    np.testing.assert_array_equal(neg.trajectory.controls,
                                  -pos.trajectory.controls)
    assert neg.info.cost == pos.info.cost
    assert neg.info.iterations == pos.info.iterations


class TestBranchMirror:
    """The two lane-centering branches are mirror images: the negative
    branch from x0 solves to exactly the negated positive branch from
    -x0.  The branch lives in the sign of the centering selector, so this
    fails if that sign reaches a barrier value but not its gradient, or
    the running terms but not the terminal ones."""

    def test_cold_and_warm_solves_mirror_bit_for_bit(self):
        rng = np.random.default_rng(12)
        tuning = LateralTuning()
        warm_config = dataclasses.replace(WARM_CONFIG, max_outer_iterations=12)
        for _ in range(40):
            pos_state = _random_left_state(rng)
            neg_state = _mirror(pos_state)
            dyn = build_lateral_dynamics(VehicleParams(),
                                         float(rng.uniform(5.0, 30.0)),
                                         tuning.dt)
            pos = build_lateral_problem(pos_state, dyn, tuning)
            neg = build_lateral_problem(neg_state, dyn, tuning)
            assert neg.barriers[1].sel_x[0] == -1.0
            assert neg.terminal_barriers[0].sel_x[0] == -1.0
            _assert_mirrored(solve(neg), solve(pos))
            warm = rng.uniform(-0.3, 0.3, size=(tuning.horizon, 1))
            _assert_mirrored(solve(neg, warm_start=-warm, config=warm_config),
                             solve(pos, warm_start=warm, config=warm_config))

    def test_planner_mirrors_bit_for_bit(self):
        # offsets that cross the centerline switch both planners' branches
        rng = np.random.default_rng(13)
        planners = LateralPlanner(), LateralPlanner()
        state = LateralState(0.4, -0.02)
        for cycle in range(30):
            if cycle % 3 == 0:
                state = LateralState(
                    state.delta_lat + float(rng.uniform(-0.25, 0.2)),
                    float(rng.uniform(-0.1, 0.1)),
                    delta_lat_rate=float(rng.uniform(-0.3, 0.3)))
            assert state.delta_lat != 0.0
            v = float(rng.uniform(5.0, 30.0))
            cmd, result = planners[0].plan(state, v)
            cmd_m, result_m = planners[1].plan(_mirror(state), v)
            assert cmd_m.delta_rad == -cmd.delta_rad
            assert result_m.info.cost == result.info.cost
            assert result_m.info.iterations == result.info.iterations
            np.testing.assert_array_equal(
                planners[1]._prev.trajectory.states,
                -planners[0]._prev.trajectory.states)


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
        # a cold cycle must solve exactly the problem built fresh for it,
        # on the cold config
        planner = LateralPlanner()
        tuning = planner.tuning
        for state, v in ((LateralState(0.6, -0.02), V_76_KMH),
                         (LateralState(-0.3, 0.04, delta_lat_rate=0.1), 12.0),
                         (LateralState(0.0, 0.01), 0.4)):
            planner.reset()
            cmd, result = planner.plan(state, v)
            dyn = build_lateral_dynamics(planner.params,
                                         max(v, V_MIN), tuning.dt)
            ref = solve(build_lateral_problem(state, dyn, tuning),
                        config=COLD_CONFIG)
            assert cmd.delta_rad == ref.trajectory.controls[0, 0]
            assert cmd.steer_cmd == cmd.delta_rad / STEER_LIMIT_RAD
            assert result.info.cost == ref.info.cost
            np.testing.assert_array_equal(result.trajectory.controls,
                                          ref.trajectory.controls)

    def test_default_configs_unchanged(self, monkeypatch):
        # cold cycles solve on the defaults at the final sharpness, warm
        # ones on the one-step budget; solve's own default stays t = 1
        assert (WARM_CONFIG.barrier_t_init, WARM_CONFIG.max_outer_iterations,
                WARM_CONFIG.gradient_tolerance) == (1.0e4, 1, 1e-3)
        assert COLD_CONFIG == dataclasses.replace(SolverConfig(),
                                                  barrier_t_init=1.0e4)
        assert (COLD_CONFIG.barrier_t_init, COLD_CONFIG.barrier_t_max,
                COLD_CONFIG.max_outer_iterations,
                COLD_CONFIG.gradient_tolerance, COLD_CONFIG.cost_tolerance,
                COLD_CONFIG.regularization_init) == (1.0e4, 1.0e4, 40, 1e-5,
                                                     1e-4, 1e-6)
        assert SolverConfig().barrier_t_init == 1.0
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        for _ in range(2):
            planner.reset()
            planner.plan(LateralState(0.5, 0.01), V_76_KMH)
        assert all(config is COLD_CONFIG for _, _, config, _ in seen)
        assert len(seen) == 2
        assert seen[0][3].info.iterations > 1

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
        # the first cycle solves cold, the next with one Newton step; both
        # at the final barrier sharpness
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        state = LateralState(0.5, 0.01)
        planner.plan(state, V_76_KMH)
        _, result = planner.plan(state, V_76_KMH)
        assert seen[0][2] is COLD_CONFIG
        assert seen[1][2] is WARM_CONFIG
        assert result.info.iterations <= 1
        for _, _, _, solved in seen:
            assert solved.info.barrier_t_scale == 1e4

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
        # a new frame (and speed) starts from the previous plan re-aimed at
        # the new state by its start-state gains
        planner.plan(LateralState(0.45, 0.012, delta_lat_rate=-0.1), 20.0)
        spec, warm = seen[2][:2]
        prev = seen[1][3]
        expected = prev.trajectory.controls + prev.gains @ (
            spec.x0 - prev.trajectory.states[0])
        np.testing.assert_array_equal(warm, expected)
        assert not np.array_equal(warm, prev.trajectory.controls)
        # reset drops the carried plan: the next cycle is a fresh planner's
        later = LateralState(-0.2, 0.03, theta_rate=0.01)
        planner.reset()
        cmd, result = planner.plan(later, 15.0)
        fresh_cmd, fresh = LateralPlanner().plan(later, 15.0)
        assert seen[3][1] is None
        assert cmd == fresh_cmd
        np.testing.assert_array_equal(seen[3][3].trajectory.controls,
                                      seen[4][3].trajectory.controls)
        assert result.info.cost == fresh.info.cost

    def test_corrected_warm_start_outside_steer_range(self, monkeypatch):
        # a large jump of offset and heading drives U + S dx0 past the steer
        # limit; the planner clips it CLIP_MARGIN of the steer range inside
        # before the solver, which takes its warm start as given, sees it
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        planner.plan(LateralState(0.1, 0.0), V_76_KMH)
        jump = LateralState(1.5, 0.2)
        _, result = planner.plan(jump, V_76_KMH)
        spec, warm = seen[1][:2]
        prev = seen[0][3].trajectory
        raw = prev.controls + seen[0][3].gains @ (spec.x0 - prev.states[0])
        assert np.max(np.abs(raw)) > STEER_LIMIT_RAD
        inside = STEER_LIMIT_RAD - CLIP_MARGIN * (2.0 * STEER_LIMIT_RAD)
        np.testing.assert_array_equal(warm, np.clip(raw, -inside, inside))
        # One Newton step does not settle this jump; repeated frames finish
        # the solve at the cold solve's cost, feasible on every cycle.
        # Measured: the fifth repeated frame converges.
        _, cold = LateralPlanner().plan(jump, V_76_KMH)
        for _ in range(8):
            margins = result.info.log_range_margins
            assert margins and all(lo > 0.0 and hi > 0.0
                                   for lo, hi in margins)
            if result.info.converged:
                break
            _, result = planner.plan(jump, V_76_KMH)
        assert result.info.converged
        assert result.info.cost == pytest.approx(cold.info.cost, rel=1e-6)

    def test_re_aimed_warm_start_is_the_feedback_correction(self,
                                                           monkeypatch):
        # Under unchanged dynamics, U + S dx0 is the previous plan corrected
        # by the start-state gains of its last Newton system, which a
        # one-step warm solve forms around the rollout of its warm start.
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        state = LateralState(0.5, 0.01)
        planner.plan(state, V_76_KMH)
        planner.plan(state, V_76_KMH)
        planner.plan(LateralState(0.47, 0.012, delta_lat_rate=-0.05),
                     V_76_KMH)
        spec, warm_start, config, prev = seen[1]
        assert config is WARM_CONFIG and prev.info.iterations == 1
        dyn = spec.dynamics
        nominal = rollout(dyn, spec.x0, warm_start)
        def plain(terms):
            return [dict(kind=t.kind.value, sel_x=t.sel_x, sel_u=t.sel_u,
                         offset=t.offset, lower=t.lower, upper=t.upper,
                         q1=t.q1, q2=t.q2) for t in terms]

        _, S, _, _ = newton_step_reference(
            nominal.states, nominal.controls, dyn.A, dyn.B, spec.cost.Q,
            spec.cost.R, spec.cost.x_ref, spec.terminal_cost.Q,
            spec.terminal_cost.x_ref, plain(spec.barriers),
            plain(spec.terminal_barriers), WARM_CONFIG.regularization_init,
            WARM_CONFIG.barrier_t_init)
        moved = seen[2][0]
        X, U = prev.trajectory.states, prev.trajectory.controls
        corrected = U + S @ (moved.x0 - X[0])
        got = U + prev.gains @ (moved.x0 - X[0])
        assert np.max(np.abs(corrected - U)) > 1e-3
        assert (np.max(np.abs(got - corrected))
                < 1e-8 * np.max(np.abs(corrected - U)))
        np.testing.assert_array_equal(seen[2][1], got)   # the clip is idle

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
        cmd, result = planner.plan(later, V_76_KMH)
        clean_cmd, clean_result = clean.plan(later, V_76_KMH)
        assert cmd == clean_cmd
        assert result.info == clean_result.info

    @pytest.mark.parametrize("v", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_explosive_model_at_low_speed_plans_feasibly(self, v,
                                                         monkeypatch):
        # below about 7 m/s the steering model's open loop explodes, so the
        # planner derives it at V_MIN; a cold cycle, a repeated frame and a
        # moved frame must plan strictly inside the steer range, and each
        # result must report its own plan's cost (the LQR gain that such a
        # model takes is tested in test_ilqr.py)
        import cilqr_drive.lateral as lateral_module
        specs = []

        def spy(spec, warm_start=None, config=None):
            specs.append(spec)
            return solve(spec, warm_start=warm_start, config=config)

        monkeypatch.setattr(lateral_module, "solve", spy)
        planner = LateralPlanner()
        for state in (LateralState(0.5, 0.02), LateralState(0.5, 0.02),
                      LateralState(0.45, 0.03)):
            cmd, result = planner.plan(state, v)
            spec, info = specs[-1], result.info
            assert abs(cmd.delta_rad) < STEER_LIMIT_RAD
            assert np.abs(result.trajectory.controls).max() < STEER_LIMIT_RAD
            assert min(min(pair) for pair in info.log_range_margins) > 0.0
            assert info.cost == pytest.approx(
                total_cost(result.trajectory, spec, info.barrier_t_scale),
                rel=1e-12)

    @pytest.mark.parametrize("v", [0.5, 1.0, 3.0, 5.0, 6.0, 7.0])
    def test_cold_plan_at_low_speed_is_stationary_and_steers(self, v):
        # forward Euler's model diverges below 6.96 m/s: planned with such
        # a model, this plan cost 1.7e63 at 1 m/s, and 2.4e20 at 5 m/s,
        # where it steered 0 and still said "stationary"
        cmd, result = LateralPlanner().plan(LateralState(0.5, 0.02), v)
        assert result.info.message == "stationary"
        assert result.info.cost < 1e3
        assert cmd.steer_cmd != 0.0

    def test_cold_plans_start_at_the_final_sharpness(self):
        # cold_solves' steering ranges (offset +-1 m, heading +-0.05 rad,
        # 40-110 km/h), each state also at V_MIN: starting at t = 1e4
        # instead of walking the schedule (about 7 iterations) the plan is
        # stationary within 4 iterations, and its cost at the final
        # sharpness is the scheduled solve's
        rng = np.random.default_rng(18)
        tuning, params = LateralTuning(), VehicleParams()
        t_max = SolverConfig.barrier_t_max
        for d, th, v in rng.uniform([-1.0, -0.05, 40.0 / 3.6],
                                    [1.0, 0.05, 110.0 / 3.6], size=(64, 3)):
            state = LateralState(d, th)
            for speed in (v, V_MIN):
                _, result = cold_plan(state, speed)
                assert result.info.message == "stationary"
                assert result.info.iterations <= 4
                assert result.info.barrier_t_scale == t_max
                spec = build_lateral_problem(
                    state, build_lateral_dynamics(params, speed, tuning.dt),
                    tuning)
                ref = solve(spec)
                assert total_cost(result.trajectory, spec, t_max) == (
                    pytest.approx(total_cost(ref.trajectory, spec, t_max),
                                  rel=1e-9))

    def test_low_speed_closed_loop_recenters(self, monkeypatch):
        # a straight road at 3 m/s, 0.3 m off centre, with the presets'
        # sensor noise: every steering plan stays cheap and the car
        # returns to the centreline (with a diverging model it planned at
        # about 1e28 and kept a 0.14 m mean offset)
        import cilqr_drive.lateral as lateral_module
        costs, real_solve = [], lateral_module.solve

        def spy(spec, warm_start=None, config=None):
            result = real_solve(spec, warm_start=warm_start, config=config)
            costs.append(result.info.cost)
            return result

        monkeypatch.setattr(lateral_module, "solve", spy)
        noise = preset_trackB_following(0).noise
        log = run_scenario(ScenarioSpec(track="straight", duration_s=8.0,
                                        cruise_speed=3.0, start_delta=0.3,
                                        noise=noise))
        assert log.terminal_event == "time_limit"
        assert len(costs) > 1000 and max(costs) < 1e3
        delta = log.columns["delta_m"]
        assert np.abs(delta[len(delta) // 2:]).max() < 0.05

    @staticmethod
    def _model_speed(planner, spec):
        """The speed the planner derived spec's model at, checked against
        a model built fresh at that speed."""
        speed = next(s for s, p in planner._problems.values() if p is spec)
        fresh = build_lateral_dynamics(planner.params, speed,
                                       planner.tuning.dt)
        np.testing.assert_array_equal(spec.dynamics.A, fresh.A)
        return speed

    def _plan_models(self, planner, cycles):
        """Plan each (state, v); return each cycle's model speed and lift."""
        out = []
        for state, v in cycles:
            planner.plan(state, v)
            spec = planner._problems[state.delta_lat >= 0.0][1]
            out.append((self._model_speed(planner, spec), spec._lift))
        return out

    def test_warm_cycle_keeps_the_model_within_the_speed_tolerance(self):
        # within MODEL_SPEED_RTOL of 20 m/s the warm cycle keeps the derived
        # model; beyond it, the model is re-derived at the exact speed
        v_in = 20.0 * (1.0 + 0.9 * MODEL_SPEED_RTOL)
        v_out = 20.0 * (1.0 + 1.1 * MODEL_SPEED_RTOL)
        (s0, lift0), (s1, lift1), (s2, lift2) = self._plan_models(
            LateralPlanner(), [(LateralState(0.5, 0.01), 20.0),
                               (LateralState(0.48, 0.01), v_in),
                               (LateralState(0.46, 0.01), v_out)])
        assert (s0, s1, s2) == (20.0, 20.0, v_out)
        assert lift1 is lift0 and lift2 is not lift0

    @pytest.mark.parametrize("v0", [8.0, V_76_KMH])
    def test_model_speed_does_not_creep_with_the_plant(self, v0):
        # speeds stepping 0.3 % each: the first step keeps the model of v0;
        # the second is 0.6 % from v0 and re-derives, although it is only
        # 0.3 % from the speed before
        state = LateralState(0.5, 0.01)
        speeds = [v0, v0 * 1.003, v0 * 1.003 ** 2]
        (s0, lift0), (s1, lift1), (s2, lift2) = self._plan_models(
            LateralPlanner(), [(state, v) for v in speeds])
        assert (s0, s1, s2) == (v0, v0, speeds[2])
        assert lift1 is lift0 and lift2 is not lift0

    def test_cold_cycle_after_a_kept_model_equals_fresh_solve(self):
        # a warm cycle keeps the model of 20 m/s at 20.06 m/s; after reset,
        # a cold cycle at 20.06 m/s plans with that speed's own model
        planner = LateralPlanner()
        (_, lift0), (speed, lift1) = self._plan_models(
            planner, [(LateralState(0.5, 0.01), 20.0),
                      (LateralState(0.48, 0.012), 20.06)])
        assert speed == 20.0 and lift1 is lift0
        planner.reset()
        state = LateralState(0.46, 0.015, delta_lat_rate=-0.05)
        cmd, result = planner.plan(state, 20.06)
        fresh_cmd, fresh = LateralPlanner().plan(state, 20.06)
        dyn = build_lateral_dynamics(planner.params, 20.06, planner.tuning.dt)
        ref = solve(build_lateral_problem(state, dyn, planner.tuning),
                    config=COLD_CONFIG)
        assert cmd == fresh_cmd
        assert cmd.delta_rad == ref.trajectory.controls[0, 0]
        for other in (fresh, ref):
            np.testing.assert_array_equal(result.trajectory.states,
                                          other.trajectory.states)
            np.testing.assert_array_equal(result.trajectory.controls,
                                          other.trajectory.controls)
            assert result.info.cost == other.info.cost

    def test_following_loop_plans_within_the_speed_tolerance(self,
                                                             monkeypatch):
        # the car-following preset's first seconds: the ego's speed moves
        # every planner cycle, by several tolerances in all
        import cilqr_drive.lateral as lateral_module
        calls, seen = [], []
        real_plan, real_solve = LateralPlanner.plan, lateral_module.solve

        def plan(planner, state, v):
            calls.append((planner, max(v, V_MIN)))
            return real_plan(planner, state, v)

        def spy(spec, warm_start=None, config=None):
            planner, v = calls[-1]
            seen.append((config, self._model_speed(planner, spec), v))
            return real_solve(spec, warm_start=warm_start, config=config)

        monkeypatch.setattr(LateralPlanner, "plan", plan)
        monkeypatch.setattr(lateral_module, "solve", spy)
        run_scenario(dataclasses.replace(preset_trackB_following(0),
                                         duration_s=4.0,
                                         metrics_t_range=None),
                     longitudinal=True)
        assert len(seen) == len(calls) > 500
        (config, model, v), warm = seen[0], seen[1:]
        assert config is COLD_CONFIG and model == v
        for config, model, v in warm:
            assert config is WARM_CONFIG
            assert abs(v - model) <= MODEL_SPEED_RTOL * model
        speeds = {v for _, _, v in seen}
        assert max(speeds) - min(speeds) > 4 * MODEL_SPEED_RTOL * max(speeds)
        assert 4 < len({model for _, model, _ in seen}) < len(speeds) // 10

    def test_repeated_frame_after_a_kept_plan_runs_no_backward_pass(
            self, monkeypatch):
        # perception delivers a frame every fourth planner cycle or so; a
        # repeated frame after a solve that kept its warm start re-poses
        # that solve, and solve answers it from its memo
        import cilqr_drive.ilqr as ilqr_module
        import cilqr_drive.lateral as lateral_module
        real_pass, real_solve = ilqr_module.backward_pass, lateral_module.solve
        passes = []

        def counting(*args, **kwargs):
            passes.append(1)
            return real_pass(*args, **kwargs)

        def on_a_fresh_problem(spec, warm_start=None, config=None):
            rebuilt = ProblemSpec(
                dynamics=spec.dynamics, horizon=spec.horizon, cost=spec.cost,
                terminal_cost=spec.terminal_cost, x0=spec.x0,
                barriers=spec.barriers,
                terminal_barriers=spec.terminal_barriers)
            return real_solve(rebuilt, warm_start=warm_start, config=config)

        monkeypatch.setattr(ilqr_module, "backward_pass", counting)
        dyn = build_lateral_dynamics(VehicleParams(), V_76_KMH, DT)
        x = np.array([0.5, 0.0, 0.0, 0.0])
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        frames, commands, answered = [], [], []
        kept = False        # the last solve returned its warm start
        for cycle in range(48):
            if cycle % 4 == 0 and commands:
                x = affine_step(dyn, x, np.array([commands[-1].delta_rad]))
            frames.append(LateralState(x[0], x[2], delta_lat_rate=x[1],
                                       theta_rate=x[3]))
            before = len(passes)
            cmd, result = planner.plan(frames[-1], V_76_KMH)
            commands.append(cmd)
            answered.append(len(passes) == before)
            assert answered[-1] == (cycle % 4 != 0 and kept)
            warm = seen[-1][1]
            kept = warm is not None and np.array_equal(
                result.trajectory.controls, warm)
        assert sum(answered) >= 24
        monkeypatch.setattr(lateral_module, "solve", on_a_fresh_problem)
        planner = LateralPlanner()
        for frame, cmd in zip(frames, commands):
            assert planner.plan(frame, V_76_KMH)[0] == cmd

    def test_repeated_frame_under_a_kept_model_re_poses_nothing(
            self, monkeypatch):
        # a repeated frame under the kept model hands solve the problem
        # already posed; a new frame, an offset of 0.0 -> -0.0 (the same
        # value, other bits) and a re-derived model each re-pose it
        real_with_start = ProblemSpec.with_start
        posed = []

        def counting(spec, x0, dynamics=None, x_ref=None):
            posed.append(dynamics)
            return real_with_start(spec, x0, dynamics=dynamics, x_ref=x_ref)

        monkeypatch.setattr(ProblemSpec, "with_start", counting)
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        v_far = 20.0 * (1.0 + 2.0 * MODEL_SPEED_RTOL)
        cycles = [  # state, speed, re-posed, model re-derived
            (LateralState(0.5, 0.01), 20.0, True, True),
            (LateralState(0.5, 0.01), 20.0, False, False),
            (LateralState(0.5, 0.01), 20.0, False, False),
            (LateralState(0.5, 0.01), 20.01, False, False),
            (LateralState(0.45, 0.012), 20.0, True, False),
            (LateralState(0.0, 0.01), 20.0, True, False),
            (LateralState(0.0, 0.01), 20.0, False, False),
            (LateralState(-0.0, 0.01), 20.0, True, False),
            (LateralState(-0.0, 0.01), 20.0, False, False),
            (LateralState(-0.0, 0.01), v_far, True, True),
            (LateralState(-0.0, 0.01), v_far, False, False),
        ]
        for state, v, re_posed, derived in cycles:
            posed.clear()
            planner.plan(state, v)
            spec, warm, config, result = seen[-1]
            assert len(posed) == re_posed
            if re_posed:
                assert (posed[0] is not None) == derived
            else:
                # the stored problem itself, and solve's memo answers it
                # whenever the last solve kept its warm start
                assert spec is seen[-2][0]
                if np.array_equal(seen[-2][3].trajectory.controls,
                                  seen[-2][1]):
                    assert result is seen[-2][3]
            assert spec.x0.tobytes() == state.as_vector().tobytes()
            # the plan of a fresh re-pose, solved on a fresh problem (its
            # own lift: no memo), bit for bit
            fresh = solve(ProblemSpec(
                dynamics=spec.dynamics, horizon=spec.horizon, cost=spec.cost,
                terminal_cost=spec.terminal_cost, x0=state.as_vector(),
                barriers=spec.barriers,
                terminal_barriers=spec.terminal_barriers),
                warm_start=warm, config=config)
            for a, b in ((result.trajectory.states, fresh.trajectory.states),
                         (result.trajectory.controls,
                          fresh.trajectory.controls),
                         (result.gains, fresh.gains)):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
            assert result.info == fresh.info
        # the memo answered some of the repeated frames
        assert sum(seen[k][3] is seen[k - 1][3]
                   for k in range(1, len(seen))) >= 3

    def test_warm_start_on_the_problem_last_solved_compares_nothing(
            self, monkeypatch):
        # the problem the last plan was solved on starts at that plan's
        # first state, so its controls are the warm start as they are;
        # every other problem compares its x0 with that state first
        import cilqr_drive.lateral as lateral_module
        compared = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def array_equal(a, b):
                compared.append(1)
                return np.array_equal(a, b)

        monkeypatch.setattr(lateral_module, "np", Numpy())
        seen = self._spy_solve(monkeypatch)
        planner = LateralPlanner()
        v_far = 20.0 * (1.0 + 2.0 * MODEL_SPEED_RTOL)
        cycles = [  # state, speed, solved on the last plan's problem
            (LateralState(0.5, 0.01), 20.0, False),     # cold
            (LateralState(0.5, 0.01), 20.0, True),
            (LateralState(0.5, 0.01), 20.01, True),
            (LateralState(0.45, 0.012), 20.0, False),   # a new frame
            (LateralState(0.45, 0.012), 20.0, True),
            (LateralState(0.0, 0.01), 20.0, False),
            (LateralState(-0.0, 0.01), 20.0, False),    # other bits
            (LateralState(-0.0, 0.01), 20.0, True),
            (LateralState(-0.0, 0.01), v_far, False),   # a new model
            (LateralState(-0.2, 0.01), v_far, False),   # the other branch
            (LateralState(-0.2, 0.01), v_far, True),
            (LateralState(-0.0, 0.01), v_far, False),   # and back
        ]
        comparisons = 0
        for k, (state, v, same) in enumerate(cycles):
            compared.clear()
            planner.plan(state, v)
            spec, warm, config, result = seen[-1]
            if k:
                prev_spec, _, _, prev = seen[-2]
                assert (spec is prev_spec) == same
                assert len(compared) == (not same and prev.gains is not None)
                comparisons += len(compared)
                if same:
                    assert warm is prev.trajectory.controls
            fresh = solve(ProblemSpec(
                dynamics=spec.dynamics, horizon=spec.horizon, cost=spec.cost,
                terminal_cost=spec.terminal_cost, x0=state.as_vector(),
                barriers=spec.barriers,
                terminal_barriers=spec.terminal_barriers),
                warm_start=warm, config=config)
            for a, b in ((result.trajectory.states, fresh.trajectory.states),
                         (result.trajectory.controls,
                          fresh.trajectory.controls),
                         (result.gains, fresh.gains)):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
            assert result.info == fresh.info
        assert comparisons == 6

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
            x = affine_step(dyn, x, np.array([cmd.delta_rad]))
            worst = max(worst, abs(x[0]))
        assert abs(x[0]) < 0.05
        assert worst <= 0.55
