"""Core solver tests: rollout, costs, barriers, passes, and solve()."""
import copy
import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cilqr_drive.ilqr import (
    AffineDynamics,
    BackwardPassError,
    BarrierKind,
    BarrierTerm,
    InfeasibleTrajectoryError,
    LINE_SEARCH_STEPS,
    ProblemSpec,
    QuadraticCost,
    SolverConfig,
    Trajectory,
    WARM_CONFIG,
    backward_pass,
    barrier_value_and_derivatives,
    rollout,
    solve,
    total_cost,
)
from cilqr_drive.ilqr import (_OPEN_LOOP_GROWTH_MAX, _flat, _lifted_map,
                               _lifted_w, _newton_system, _quadratic)
from cilqr_drive.lateral import (LateralState, LateralTuning, VehicleParams,
                                 build_lateral_dynamics, build_lateral_problem)
from cilqr_drive.longitudinal import (LeadMeasurement, LongitudinalState,
                                      LongTuning, build_following_problem)
from oracles import (affine_step, barrier_arguments_reference,
                     central_diff_grad, central_diff_hess, closed_loop_rollout,
                     grid_minimize, lqr_dp_gains, lqr_dp_solve,
                     newton_step_reference, newton_system_reference,
                     riccati_backward_reference)

# Frozen from independent evaluation of the stated formulas.
LOG_RANGE_AT_ZERO_PI6 = 1.2940591667573098      # -2 ln(pi/6)
LOG_RANGE_AT_HALF_UNIT = 0.2876820724517809     # -(ln 1.5 + ln 0.5)


def scalar_problem(barriers=(), terminal_barriers=()):
    """1-state 1-control problem: A=B=Q=R=Qf=1, x0=1, N=1."""
    dyn = AffineDynamics(A=[[1.0]], B=[[1.0]])
    cost = QuadraticCost(Q=[[1.0]], R=[[1.0]], x_ref=[0.0])
    return ProblemSpec(dynamics=dyn, horizon=1, cost=cost, terminal_cost=cost,
                       x0=[1.0], barriers=list(barriers),
                       terminal_barriers=list(terminal_barriers))


def random_affine_problem(rng, n=None, m=None, N=None, with_drift=True,
                          with_ref=True):
    n = n or rng.integers(2, 7)
    m = m or rng.integers(1, 3)
    N = N or rng.integers(3, 51)
    A = rng.normal(size=(n, n)) * 0.4 + np.eye(n) * 0.9
    B = rng.normal(size=(n, m))
    d = rng.normal(size=n) * 0.1 if with_drift else np.zeros(n)
    C = np.eye(n) if with_drift else None
    w = d if with_drift else None
    Mq = rng.normal(size=(n, n))
    Q = Mq.T @ Mq / n + 0.1 * np.eye(n)
    Mr = rng.normal(size=(m, m))
    R = Mr.T @ Mr / m + 0.5 * np.eye(m)
    x_ref = rng.normal(size=n) * 0.5 if with_ref else np.zeros(n)
    Qf = Q * 2.0
    x0 = rng.normal(size=n)
    dyn = AffineDynamics(A=A, B=B, C=C, w=w)
    spec = ProblemSpec(
        dynamics=dyn, horizon=int(N),
        cost=QuadraticCost(Q=Q, R=R, x_ref=x_ref),
        terminal_cost=QuadraticCost(Q=Qf, R=R, x_ref=x_ref),
        x0=x0)
    return spec, (A, B, d, Q, R, Qf, x_ref, x0, int(N))


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

class TestRollout:
    def test_gap_tracking_hand_example(self):
        # dt = 0.1, state (gap, speed, accel), lead at 18 m/s
        dt = 0.1
        A = [[1.0, -dt, -0.5 * dt * dt], [0.0, 1.0, dt], [0.0, 0.0, 1.0]]
        B = [[0.0], [0.0], [dt]]
        C = [[0.0, dt, 0.5 * dt * dt], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        w = [0.0, 18.0, 0.0]
        dyn = AffineDynamics(A=A, B=B, C=C, w=w)
        traj = rollout(dyn, [20.0, 22.0, 0.0], np.zeros((1, 1)))
        np.testing.assert_allclose(traj.states[1], [19.6, 22.0, 0.0], atol=1e-12)

    def test_scalar_accumulates(self):
        dyn = AffineDynamics(A=[[1.0]], B=[[1.0]])
        traj = rollout(dyn, [0.0], np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(traj.states.ravel(), [0.0, 1.0, 3.0, 6.0])

    def test_per_step_dynamics_sequence(self):
        # a problem has one time-invariant model; a sequence is rejected
        d1 = AffineDynamics(A=[[2.0]], B=[[0.0001]])
        d2 = AffineDynamics(A=[[3.0]], B=[[0.0001]])
        with pytest.raises(ValueError):
            rollout([d1, d2], [1.0], np.zeros((2, 1)))
        cost = QuadraticCost(Q=[[1.0]], R=[[1.0]], x_ref=[0.0])
        with pytest.raises(ValueError):
            ProblemSpec(dynamics=[d1, d2], horizon=2, cost=cost,
                        terminal_cost=cost, x0=[1.0])
        spec = ProblemSpec(dynamics=d1, horizon=2, cost=cost,
                           terminal_cost=cost, x0=[1.0])
        with pytest.raises(ValueError):
            spec.with_start([1.0], dynamics=[d1, d2])

    def test_rejects_dimension_mismatch(self):
        dyn = AffineDynamics(A=np.eye(2), B=np.ones((2, 1)))
        with pytest.raises(ValueError):
            rollout(dyn, [1.0], np.zeros((3, 1)))
        with pytest.raises(ValueError):
            rollout(dyn, [1.0, 2.0], np.zeros((3, 2)))

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        dyn = AffineDynamics(A=rng.normal(size=(3, 3)), B=rng.normal(size=(3, 2)))
        x0 = rng.normal(size=3)
        U = rng.normal(size=(20, 2))
        t1 = rollout(dyn, x0, U)
        t2 = rollout(dyn, x0, U)
        assert np.array_equal(t1.states, t2.states)

    def test_a_trajectory_keeps_its_own_copies(self):
        # writing into the caller's arrays after rollout or construction
        # leaves the trajectory as it was; the controls used to be a view
        # (controls [5, 0, 0] against states [1, 1, 1, 1])
        controls = np.zeros((3, 1))
        traj = rollout(AffineDynamics(A=[[1.0]], B=[[1.0]]), [1.0], controls)
        controls[0, 0] = 5.0
        states, controls = np.ones((4, 1)), np.zeros((3, 1))
        built = Trajectory(states, controls)
        states[:], controls[:] = 7.0, 7.0
        for t in (traj, built):
            np.testing.assert_array_equal(t.states, np.ones((4, 1)))
            np.testing.assert_array_equal(t.controls, np.zeros((3, 1)))
            assert not (t.states.flags.writeable or t.controls.flags.writeable)
        assert states.flags.writeable and controls.flags.writeable


# ---------------------------------------------------------------------------
# total_cost
# ---------------------------------------------------------------------------

class TestTotalCost:
    def test_zero_at_reference(self):
        dyn = AffineDynamics(A=np.eye(2), B=np.zeros((2, 1)))
        cost = QuadraticCost(Q=np.eye(2), R=[[1.0]], x_ref=[1.0, -2.0])
        spec = ProblemSpec(dynamics=dyn, horizon=3, cost=cost,
                           terminal_cost=cost, x0=[1.0, -2.0])
        traj = rollout(dyn, spec.x0, np.zeros((3, 1)))
        assert total_cost(traj, spec) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_hand_value(self):
        spec = scalar_problem()
        traj = rollout(spec.dynamics, spec.x0, np.array([[-0.5]]))
        # 1^2 + 0.5^2 + 0.5^2
        assert total_cost(traj, spec) == pytest.approx(1.5, abs=1e-12)

    def test_log_range_infeasible_raises(self):
        term = BarrierTerm.log_range(1, 1, lower=-0.25, upper=0.25,
                                     control_index=0)
        spec = scalar_problem(barriers=[term])
        traj = rollout(spec.dynamics, spec.x0, np.array([[-0.5]]))
        with pytest.raises(InfeasibleTrajectoryError):
            total_cost(traj, spec)

    def test_shape_mismatch_rejected(self):
        spec = scalar_problem()
        traj = Trajectory(np.zeros((3, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            total_cost(traj, spec)


# ---------------------------------------------------------------------------
# barrier terms
# ---------------------------------------------------------------------------

class TestBarriers:
    def test_log_range_value_at_zero_steering_bounds(self):
        term = BarrierTerm.log_range(1, 1, lower=-math.pi / 6,
                                     upper=math.pi / 6, control_index=0)
        d = barrier_value_and_derivatives(term, np.zeros(1), np.zeros(1))
        assert d.value == pytest.approx(LOG_RANGE_AT_ZERO_PI6, rel=1e-12)
        # symmetric range midpoint: zero slope, positive curvature
        assert d.grad_u[0] == pytest.approx(0.0, abs=1e-12)
        assert d.hess_uu[0, 0] > 0.0

    def test_log_range_value_at_half(self):
        term = BarrierTerm.log_range(2, 1, lower=-1.0, upper=1.0, state_index=1)
        d = barrier_value_and_derivatives(term, np.array([9.0, 0.5]), np.zeros(1))
        assert d.value == pytest.approx(LOG_RANGE_AT_HALF_UNIT, rel=1e-12)

    def test_log_range_t_scaling(self):
        term = BarrierTerm.log_range(1, 1, lower=-1.0, upper=1.0,
                                     control_index=0)
        d1 = barrier_value_and_derivatives(term, np.zeros(1), np.array([0.5]))
        d10 = barrier_value_and_derivatives(term, np.zeros(1), np.array([0.5]),
                                            t_scale=10.0)
        assert d10.value == pytest.approx(d1.value / 10.0, rel=1e-12)

    def test_exp_one_sided_at_boundary(self):
        # q1 = q2 = 1 and z = 0 sits exactly at the shaped boundary
        term = BarrierTerm.exp_one_sided(2, 1, state_index=0)
        d = barrier_value_and_derivatives(term, np.array([0.0, 3.0]), np.zeros(1))
        assert d.value == pytest.approx(1.0)
        assert d.grad_x[0] == pytest.approx(1.0)
        assert d.hess_xx[0, 0] == pytest.approx(1.0)

    def test_lane_centering_branches(self):
        term_pos = BarrierTerm.lane_centering(2, 1, state_index=0,
                                              branch_positive=True)
        term_neg = BarrierTerm.lane_centering(2, 1, state_index=0,
                                              branch_positive=False)
        x = np.array([0.4, 0.0])
        prev = np.array([0.5, 0.0])
        d_pos = barrier_value_and_derivatives(term_pos, x, np.zeros(1), prev_x=prev)
        d_neg = barrier_value_and_derivatives(term_neg, x, np.zeros(1), prev_x=prev)
        assert d_pos.value == pytest.approx(math.exp(-0.1), rel=1e-12)
        assert d_neg.value == pytest.approx(math.exp(0.1), rel=1e-12)
        # positive branch rewards decreasing offsets
        assert d_pos.grad_x[0] > 0.0
        assert d_neg.grad_x[0] < 0.0

    def test_lane_centering_requires_prev(self):
        term = BarrierTerm.lane_centering(2, 1, state_index=0,
                                          branch_positive=True)
        with pytest.raises(ValueError):
            barrier_value_and_derivatives(term, np.zeros(2), np.zeros(1))

    def test_derivatives_match_central_differences(self):
        rng = np.random.default_rng(42)
        n, m = 3, 2
        terms = [
            BarrierTerm.log_range(n, m, lower=-2.0, upper=1.5, control_index=1),
            BarrierTerm.log_range(n, m, lower=-1.0, upper=1.0, state_index=2),
            BarrierTerm.exp_one_sided(n, m, state_index=0, coeff=-1.0,
                                      offset=0.3, q1=0.7, q2=1.3),
            BarrierTerm.lane_centering(n, m, state_index=1,
                                       branch_positive=True, weight=1.1,
                                       rate=0.8),
            BarrierTerm.lane_centering(n, m, state_index=0,
                                       branch_positive=False),
        ]
        for term in terms:
            for _ in range(40):
                x = rng.uniform(-0.6, 0.6, size=n)
                u = rng.uniform(-0.6, 0.6, size=m)
                prev = rng.uniform(-0.6, 0.6, size=n)
                d = barrier_value_and_derivatives(term, x, u, prev_x=prev,
                                                  t_scale=2.0)

                def f(zvec):
                    dd = barrier_value_and_derivatives(
                        term, zvec[:n], zvec[n:], prev_x=prev, t_scale=2.0)
                    return dd.value

                z0 = np.concatenate([x, u])
                g = central_diff_grad(f, z0)
                ga = np.concatenate([d.grad_x, d.grad_u])
                np.testing.assert_allclose(ga, g, rtol=1e-6, atol=1e-8)
                H = central_diff_hess(f, z0)
                Ha = np.block([[d.hess_xx, d.hess_ux.T],
                               [d.hess_ux, d.hess_uu]])
                np.testing.assert_allclose(Ha, H, rtol=1e-4, atol=1e-5)

    def test_hessian_contribution_psd(self):
        rng = np.random.default_rng(3)
        term = BarrierTerm.log_range(4, 2, lower=-1.0, upper=2.0, state_index=1)
        for _ in range(50):
            x = rng.uniform(-0.9, 1.9, size=4)
            d = barrier_value_and_derivatives(term, x, np.zeros(2))
            assert np.linalg.eigvalsh(d.hess_xx).min() >= -1e-12

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError):
            BarrierTerm.log_range(1, 1, lower=1.0, upper=-1.0, control_index=0)
        with pytest.raises(ValueError):
            BarrierTerm.exp_one_sided(1, 1, control_index=0, q1=-1.0)

    def test_non_finite_fields_rejected(self):
        # an infinite log-range side makes the barrier cost -inf, and a
        # NaN or inf exponential parameter a non-finite Newton system
        fields = {"offset": 0.0, "lower": -1.0, "upper": 1.0, "q1": 1.0,
                  "q2": 1.0}
        for kind in (BarrierKind.LOG_RANGE, BarrierKind.EXP_ONE_SIDED):
            for name in fields:
                for bad in (math.nan, math.inf, -math.inf):
                    with pytest.raises(ValueError, match=name):
                        BarrierTerm(kind, [1.0], [0.0],
                                    **{**fields, name: bad})
            for name in ("sel_x", "sel_u"):
                sel = {"sel_x": [1.0], "sel_u": [0.0], name: [math.nan]}
                with pytest.raises(ValueError, match=name):
                    BarrierTerm(kind, **sel, **fields)

    def test_slopes_vanish_where_the_exponent_is_capped(self):
        # past the exponent cap the value is flat, so the derivatives are
        # zero, as central differences of the value say
        n, m = 2, 1
        terms = [BarrierTerm.exp_one_sided(n, m, state_index=1, offset=0.5,
                                           q1=0.3, q2=20.0),
                 BarrierTerm.exp_one_sided(n, m, control_index=0, coeff=-1.0,
                                           q2=30.0),
                 BarrierTerm.lane_centering(n, m, state_index=0,
                                            branch_positive=True, rate=50.0)]
        x, u, prev = np.array([2.0, 3.0]), np.array([-2.0]), np.zeros(n)
        for term in terms:
            d = barrier_value_and_derivatives(term, x, u, prev_x=prev)
            assert d.value == pytest.approx(term.q1 * math.exp(45.0))
            for part in (d.grad_x, d.grad_u, d.hess_xx, d.hess_uu, d.hess_ux):
                assert not part.any()

            def f(zvec):
                return barrier_value_and_derivatives(
                    term, zvec[:n], zvec[n:], prev_x=prev).value

            z0 = np.concatenate([x, u])
            np.testing.assert_array_equal(central_diff_grad(f, z0), 0.0)
            np.testing.assert_array_equal(central_diff_hess(f, z0), 0.0)


# ---------------------------------------------------------------------------
# backward / forward passes
# ---------------------------------------------------------------------------

def direction(traj, spec, reg, t_scale=1.0):
    """backward_pass from traj, a trajectory of spec's dynamics, on the
    Newton system solve forms at it under a gain K: from its lift
    parameters v, its barrier arguments and the quadratic cost's gradient
    q at the free response (v = 0)."""
    lift = spec._lift
    v = (traj.controls - traj.states[:-1] @ lift.K.T).ravel()
    w_free = _lifted_w(lift.F, np.zeros_like(traj.controls), spec.x0,
                       spec.dynamics._drift)
    q = lift.Gq @ (w_free - spec._w_ref)
    H, g = _newton_system(v, spec._columns.arguments(_flat(traj)), q, spec,
                          t_scale)
    return backward_pass(H, g, spec, reg)


def trajectory_step(spec, step):
    """The step [vec dX, vec dU] of a direction dv in the lift's v."""
    return spec._lift.Fv @ step


class TestPasses:
    def test_backward_zero_cost_zero_gains(self):
        dyn = AffineDynamics(A=np.eye(2), B=np.ones((2, 1)))
        cost = QuadraticCost(Q=np.zeros((2, 2)), R=[[1.0]], x_ref=[0.0, 0.0])
        spec = ProblemSpec(dynamics=dyn, horizon=4, cost=cost,
                           terminal_cost=cost, x0=[0.0, 0.0])
        traj = rollout(dyn, spec.x0, np.zeros((4, 1)))
        step, S, _, dec = direction(traj, spec, 0.0)
        np.testing.assert_allclose(step, 0.0, atol=1e-15)
        np.testing.assert_allclose(S, 0.0, atol=1e-15)
        assert dec == pytest.approx(0.0, abs=1e-15)

    def test_start_state_gains_are_the_riccati_closed_loop(self):
        # S_i = K_i Phi_i, Phi_0 = I, Phi_{i+1} = (A + B K_i) Phi_i: the
        # optimal plan's change with the start state
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec, (A, B, d, Q, R, Qf, x_ref, x0, N) = random_affine_problem(
                rng, n=4, m=1, with_drift=False, with_ref=False)
            traj = rollout(spec.dynamics, spec.x0,
                           rng.normal(size=(spec.horizon, 1)) * 0.1)
            _, S, _, _ = direction(traj, spec, 0.0)
            ref = lqr_dp_gains(A, B, Q, R, Qf, spec.horizon)
            phi, want = np.eye(4), []
            for i in range(spec.horizon):
                K = -ref[i]
                want.append(K @ phi)
                phi = (A + B @ K) @ phi
            assert _rel_err(S, want) < 1e-8

    def test_gain_is_on_exactly_where_the_open_loop_loses_digits(self):
        # the condensed step is taken in the open loop's controls up to
        # _OPEN_LOOP_GROWTH_MAX and around the LQR gain beyond it; either
        # way the start-state gains hold 1e-8 on both sides of the limit
        rng = np.random.default_rng(12)
        below = above = 0
        for _ in range(40):
            spec, (A, B, d, Q, R, Qf, x_ref, x0, N) = random_affine_problem(
                rng, n=4, m=1, with_drift=False, with_ref=False)
            growth = np.abs(_lifted_map(A, B, N)).max()
            gain_on = bool(np.any(spec._lift.K != 0.0))
            assert gain_on == (growth > _OPEN_LOOP_GROWTH_MAX)
            below, above = below + (not gain_on), above + gain_on
            traj = rollout(spec.dynamics, spec.x0,
                           rng.normal(size=(spec.horizon, 1)) * 0.1)
            _, S, _, _ = direction(traj, spec, 0.0)
            ref = lqr_dp_gains(A, B, Q, R, Qf, spec.horizon)
            phi, want = np.eye(4), []
            for i in range(spec.horizon):
                K = -ref[i]
                want.append(K @ phi)
                phi = (A + B @ K) @ phi
            assert _rel_err(S, want) < 1e-8
        assert below >= 10 and above >= 10

    def test_backward_failure_signal(self):
        spec = scalar_problem()
        traj = rollout(spec.dynamics, spec.x0, np.zeros((1, 1)))
        with pytest.raises(BackwardPassError):
            direction(traj, spec, -100.0)

    def test_full_step_is_exact_newton_on_quadratic(self):
        spec = scalar_problem()
        traj = rollout(spec.dynamics, spec.x0, np.zeros((1, 1)))
        step, _, _, _ = direction(traj, spec, 0.0)
        w = _flat(traj) + trajectory_step(spec, step)
        stepped = Trajectory(w[:2].reshape(2, 1), w[2:].reshape(1, 1))
        assert stepped.controls[0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert stepped.states[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert total_cost(stepped, spec) == pytest.approx(1.5, abs=1e-12)


def random_barrier_problem(rng, m, growth=None, lane_centering=True):
    """Random problem with every barrier kind, feasible at its rollout.

    Returns the problem and a nominal trajectory rolled out from small
    random controls.  Log-range bounds straddle the nominal with a margin.
    A's spectral radius is at most 1.02, or growth ** (1 / N) if given.
    Without lane_centering the same draw keeps only its one-step terms,
    on which the per-step Riccati pass is the exact Newton step.
    """
    n, N = 4, int(rng.integers(5, 31))
    A = rng.normal(size=(n, n)) * 0.3 + np.eye(n) * 0.9
    radius = np.max(np.abs(np.linalg.eigvals(A)))
    A *= (min(1.0, 1.02 / radius) if growth is None
          else growth ** (1.0 / N) / radius)
    dynamics = AffineDynamics(A=A, B=rng.normal(size=(n, m)), C=np.eye(n),
                              w=rng.normal(size=n) * 0.1)
    Mq = rng.normal(size=(n, n))
    Mr = rng.normal(size=(m, m))
    cost = QuadraticCost(Q=Mq.T @ Mq / n + 0.1 * np.eye(n),
                         R=Mr.T @ Mr / m + 0.5 * np.eye(m),
                         x_ref=rng.normal(size=n) * 0.5)
    final = QuadraticCost(Q=2.0 * cost.Q, R=cost.R,
                          x_ref=rng.normal(size=n) * 0.5)
    x0 = rng.normal(size=n)
    nominal = rollout(dynamics, x0, rng.normal(size=(N, m)) * 0.3)
    X, U = nominal.states, nominal.controls

    def straddle(z):
        return float(np.min(z)) - 0.5, float(np.max(z)) + 0.5

    sx = rng.normal(size=n)
    su = rng.normal(size=m)
    lo_u, hi_u = straddle(U[:, 0])
    lo_xu, hi_xu = straddle(X[:N] @ sx + U @ su)
    lo_x, hi_x = straddle(X[N, 2])
    running = [
        BarrierTerm.lane_centering(n, m, state_index=0, branch_positive=True,
                                   weight=0.7, rate=1.3),
        BarrierTerm.log_range(n, m, lower=lo_u, upper=hi_u, control_index=0),
        BarrierTerm.exp_one_sided(n, m, coeff=-1.0, offset=0.4, q1=0.8,
                                  q2=1.1, state_index=1),
        BarrierTerm(BarrierKind.EXP_ONE_SIDED, 0.3 * sx, 0.3 * su,
                    offset=-0.2, q1=0.5, q2=0.9),
        BarrierTerm(BarrierKind.LOG_RANGE, sx, su, lower=lo_xu, upper=hi_xu),
        BarrierTerm.lane_centering(n, m, state_index=3, branch_positive=False),
    ]
    terminal = [
        BarrierTerm.exp_one_sided(n, m, coeff=1.0, offset=-0.3, q1=1.2,
                                  q2=0.6, state_index=1),
        BarrierTerm.lane_centering(n, m, state_index=0, branch_positive=True,
                                   weight=0.7, rate=1.3),
        BarrierTerm.log_range(n, m, lower=lo_x, upper=hi_x, state_index=2),
    ]
    if not lane_centering:
        running, terminal = (
            [t for t in terms if t.kind is not BarrierKind.EXP_LANE_CENTERING]
            for terms in (running, terminal))
    spec = ProblemSpec(dynamics=dynamics, horizon=N, cost=cost,
                       terminal_cost=final, x0=x0, barriers=running,
                       terminal_barriers=terminal)
    return spec, nominal


def fresh_problem(spec, x0, dynamics=None, x_ref=None):
    """spec built anew from its parts, with x0 and any of dynamics or the
    reference of both costs replaced."""
    def cost(c):
        return c if x_ref is None else QuadraticCost(Q=c.Q, R=c.R, x_ref=x_ref)

    return ProblemSpec(
        dynamics=spec.dynamics if dynamics is None else dynamics,
        horizon=spec.horizon, cost=cost(spec.cost),
        terminal_cost=cost(spec.terminal_cost), x0=x0,
        barriers=spec.barriers, terminal_barriers=spec.terminal_barriers)


def _plain_terms(terms):
    return [dict(kind=t.kind.value, sel_x=np.array(t.sel_x),
                 sel_u=np.array(t.sel_u), offset=t.offset, lower=t.lower,
                 upper=t.upper, q1=t.q1, q2=t.q2)
            for t in terms]


def _rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                 / max(np.max(np.abs(np.asarray(b))), 1e-300))


def _backward_err(H, x, b):
    """Normwise backward error of x (one column or several) as a solution
    of H x = -b: the smallest e for which x solves (H + dH) x = -(b + db)
    exactly with |dH| <= e |H| and |db| <= e |b| (infinity norms)."""
    x, b = np.reshape(x, (len(H), -1)), np.reshape(b, (len(H), -1))
    norm = lambda a: np.linalg.norm(a, np.inf)
    return float(norm(H @ x + b) / (norm(H) * norm(x) + norm(b)))


class TestPassesAgainstReference:
    def test_condensed_scores_are_the_costs_of_rolled_out_candidates(self):
        # without a gain, solve scores the start + Fv v for v = lam dv and
        # every lam of the backtracking schedule without forming it:
        # arguments Z0 + v Sb', quadratic cost Jq0 + q'v + v'H0 v / 2 from
        # the start's own.  Each score must be total_cost of the rollout of
        # the candidate's controls (U + v with K = 0).
        rng = np.random.default_rng(78)
        # every halving from 1 down to 1e-4, as repeated products
        halvings, lam = [], 1.0
        while lam >= 1e-4:
            halvings.append(lam)
            lam *= 0.5
        np.testing.assert_array_equal(LINE_SEARCH_STEPS, halvings)
        scored = 0
        for trial in range(8):
            spec, nominal = random_barrier_problem(rng, 1 + trial % 2)
            lift, Nm = spec._lift, spec.horizon * spec.m
            assert not lift.K.any()
            w = _flat(nominal)
            q = lift.Gq @ (w - spec._w_ref)
            step, _, _, _ = direction(nominal, spec, 1e-3, 50.0)
            vs = LINE_SEARCH_STEPS[:, None] * step
            Zs = spec._columns.arguments(w) + vs @ lift.SbT
            scores = (_quadratic(w, spec) + vs @ q
                      + 0.5 * ((vs @ lift.H0[:, :Nm]) * vs).sum(axis=1)
                      + spec._columns.cost(Zs, 50.0))
            for v, got in zip(vs, scores):
                moved = rollout(spec.dynamics, spec.x0, nominal.controls
                                + v.reshape(-1, spec.m))
                if not np.isfinite(got):
                    with pytest.raises(InfeasibleTrajectoryError):
                        total_cost(moved, spec, 50.0)
                    continue
                scored += 1
                assert got == pytest.approx(total_cost(moved, spec, 50.0),
                                            rel=1e-12)
        assert scored > 50

    def test_start_state_gains_give_the_feedback_correction(self):
        # U_1 + S dx0 is the stepped plan corrected by the feedback law of
        # the pass, u_i = U_1,i + K_i (x_i - X_1,i) rolled out from a moved
        # start state (one-step terms only; see test_step_is_the_newton_step)
        rng = np.random.default_rng(79)
        for trial in range(8):
            spec, nominal = random_barrier_problem(rng, 1 + trial % 2,
                                                   lane_centering=False)
            step, S, _, _ = direction(nominal, spec, 1e-9)
            k, K, _, _ = _reference_pass(spec, nominal, 1e-9, 1.0)
            w = _flat(nominal) + trajectory_step(spec, step)
            N, n, dyn = spec.horizon, spec.n, spec.dynamics
            X, U = w[:(N + 1) * n].reshape(N + 1, n), w[(N + 1) * n:].reshape(
                N, spec.m)
            x0 = spec.x0 + 0.3 * rng.normal(size=n)
            _, us = closed_loop_rollout(dyn.A, dyn.B, dyn._drift, X, U, k, K,
                                        0.0, x0)
            assert _rel_err(S @ (x0 - spec.x0), us - U) < 1e-8


def _reference_pass(spec, nominal, reg, t_scale):
    """riccati_backward_reference on spec around nominal."""
    N, dyn = spec.horizon, spec.dynamics
    return riccati_backward_reference(
        nominal.states, nominal.controls, [dyn.A] * N, [dyn.B] * N,
        spec.cost.Q, spec.cost.R, spec.cost.x_ref, spec.terminal_cost.Q,
        spec.terminal_cost.x_ref, _plain_terms(spec.barriers),
        _plain_terms(spec.terminal_barriers), reg, t_scale)


class TestLiftedStep:
    def test_lifted_map_moves_a_trajectory_as_a_rollout_does(self):
        # F [vec dU; dx0] is how a change of the controls and of the start
        # state moves the rolled-out trajectory w = [vec X, vec U]
        rng = np.random.default_rng(91)
        for trial in range(8):
            m = 1 + trial % 2
            spec, nominal = random_barrier_problem(rng, m)
            N, n = spec.horizon, spec.n
            F = _lifted_map(spec.dynamics.A, spec.dynamics.B, N)
            assert F.shape == ((N + 1) * n + N * m, N * m + n)
            dU, dx0 = rng.normal(size=(N, m)), rng.normal(size=n)
            moved = rollout(spec.dynamics, spec.x0 + dx0,
                            nominal.controls + dU)
            got = _flat(nominal) + F @ np.concatenate([dU.ravel(), dx0])
            assert _rel_err(got, _flat(moved)) < 1e-12

    def test_re_aimed_dynamics_or_reference_match_a_fresh_problem(self):
        # a problem re-aimed at other dynamics, another disturbance or
        # another reference must give what a problem built fresh from the
        # same parts gives
        rng = np.random.default_rng(92)
        for trial in range(4):
            m = 1 + trial % 2
            spec, nominal = random_barrier_problem(rng, m)
            other, _ = random_barrier_problem(rng, m)
            _, before, _, _ = direction(nominal, spec, 1e-3)
            drift = spec.dynamics.with_drift(
                spec.dynamics.w + 0.01 * rng.normal(size=spec.n))
            for part in ({"dynamics": other.dynamics},
                         {"dynamics": drift},
                         {"x_ref": rng.normal(size=spec.n)}):
                moved = spec.with_start(spec.x0, **part)
                fresh = fresh_problem(spec, spec.x0, **part)
                got = direction(nominal, moved, 1e-3)
                want = direction(nominal, fresh, 1e-3)
                # step, start-state gains, grad_norm, expected decrease
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)
                # only another A and B re-derive the lift, and with it the
                # start-state gains
                keeps = part.get("dynamics") is not other.dynamics
                assert (moved._lift is spec._lift) == keeps
                assert np.array_equal(got[1], before) == keeps
            moved = spec.with_start(spec.x0, dynamics=drift)
            _same_result(solve(moved, warm_start=nominal.controls),
                         solve(fresh_problem(spec, spec.x0, dynamics=drift),
                               warm_start=nominal.controls))
            # a new disturbance keeps the derived data
            assert spec.with_start(spec.x0, dynamics=drift)._lift is spec._lift
            # and the original keeps its own
            _, again, _, _ = direction(nominal, spec, 1e-3)
            np.testing.assert_array_equal(again, before)

    def test_solve_runs_one_backward_pass_per_iteration(self, monkeypatch):
        # solve calls ilqr.backward_pass through the module once per outer
        # iteration, and a failed pass costs its iteration
        import cilqr_drive.ilqr as ilqr_module
        real = ilqr_module.backward_pass
        calls, failures = [], []

        def counting(*args, **kwargs):
            calls.append(1)
            if len(calls) <= len(failures):
                raise BackwardPassError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(ilqr_module, "backward_pass", counting)
        rng = np.random.default_rng(93)
        problems = [random_barrier_problem(rng, 1 + t % 2) for t in range(6)]
        problems += [(random_affine_problem(rng)[0], None) for _ in range(3)]
        for spec, nominal in problems:
            warm = None if nominal is None else nominal.controls
            for config in (SolverConfig(), SolverConfig(max_outer_iterations=3)):
                calls.clear()
                res = solve(spec, warm_start=warm, config=config)
                assert len(calls) == res.info.iterations
        # two failed passes, then the real ones: 1e-6 -> 1e-4 on the way
        failures[:] = [1, 1]
        calls.clear()
        res = solve(scalar_problem())
        assert len(calls) == res.info.iterations == 5
        assert res.info.converged
        # every pass fails: 1e-6 grows tenfold per iteration past REG_MAX
        failures[:] = [1] * 100
        calls.clear()
        res = solve(scalar_problem())
        assert len(calls) == res.info.iterations == 9
        assert res.info.message == "backward pass failed at regularization cap"
        assert not res.info.converged
        assert res.gains is None
        assert res.info.regularization == pytest.approx(1e3)

    def test_newton_system_is_formed_once_per_iterate(self, monkeypatch):
        # a retry at an iterate (after a failed search or factorization)
        # changes only the regularization, so the iterate's Newton system
        # is formed once, and again only after an accepted step
        import cilqr_drive.ilqr as ilqr_module
        real_system, real_pass = (ilqr_module._newton_system,
                                  ilqr_module.backward_pass)
        formed, regs = [], []

        def forming(*args):
            formed.append(real_system(*args))
            return formed[-1]

        def counting(H, g, spec, regularization):
            # every pass reads the system formed last
            assert H is formed[-1][0] and g is formed[-1][1]
            regs.append(regularization)
            return real_pass(H, g, spec, regularization)

        def climbing(*args):
            step, S, grad_norm, dec = counting(*args)
            return -step, S, grad_norm, dec

        monkeypatch.setattr(ilqr_module, "_newton_system", forming)
        with monkeypatch.context() as patch:
            # every search direction climbs: each pass retries the start
            patch.setattr(ilqr_module, "backward_pass", climbing)
            res = solve(scalar_problem())
        assert res.info.message == "line search stalled at regularization cap"
        assert len(formed) == 1
        assert len(regs) == res.info.iterations >= 9
        monkeypatch.setattr(ilqr_module, "backward_pass", counting)
        rng = np.random.default_rng(31)
        retries = 0
        # tolerances below rounding stall each search near the optimum
        tight = SolverConfig(cost_tolerance=1e-14, gradient_tolerance=1e-12)
        for t in range(16):
            spec, nominal = random_barrier_problem(rng, 1 + t % 2)
            for config in (None, SolverConfig(barrier_t_init=1e4), tight):
                formed.clear()
                regs.clear()
                res = solve(spec, warm_start=nominal.controls, config=config)
                assert len(regs) == res.info.iterations
                # a retry grows the regularization, an accepted step does
                # not: the passes ran at len(regs) - retried iterates
                retried = sum(b > a for a, b in zip(regs, regs[1:]))
                assert len(formed) == len(regs) - retried
                if res.info.message in ("stationary", "line search stalled "
                                        "at regularization cap"):
                    # the start and every accepted iterate ran a pass
                    assert len(formed) == len(res.info.cost_history)
                retries += retried
        assert retries > 0

    def test_a_step_that_rounds_back_to_the_iterate_is_no_decrease(
            self, monkeypatch):
        # with tolerances below rounding, this draw's batched score of a
        # candidate equal to v bit for bit once rounded below J, the
        # iterate's own score summed in another order, and the search took
        # it as a decrease: the same iterate's system was formed again
        import cilqr_drive.ilqr as ilqr_module
        real_system = ilqr_module._newton_system
        iterates = []

        def forming(v, *args):
            iterates.append(v.tobytes())
            return real_system(v, *args)

        rng = np.random.default_rng(31)
        for t in range(7):
            spec, nominal = random_barrier_problem(rng, 1 + t % 2)
        monkeypatch.setattr(ilqr_module, "_newton_system", forming)
        res = solve(spec, warm_start=nominal.controls, config=SolverConfig(
            cost_tolerance=1e-14, gradient_tolerance=1e-12))
        assert len(iterates) >= 10
        assert len(set(iterates)) == len(iterates)
        # every accepted step is a strict decrease at its sharpness
        assert len(res.info.cost_history) == len(iterates)


_KIND_ORDER = [BarrierKind.LOG_RANGE, BarrierKind.EXP_ONE_SIDED,
               BarrierKind.EXP_LANE_CENTERING]


def _stacked(terms):
    """Column order of a barrier stack: by kind, stable within a kind."""
    return sorted(range(len(terms)), key=lambda j: _KIND_ORDER.index(
        terms[j].kind))


def planner_problems():
    """Both lane-centering branches of the lateral problem and the
    following problem, each with a plan solved on it."""
    tuning = LateralTuning()
    dyn = build_lateral_dynamics(VehicleParams(), 20.0, tuning.dt)
    out = []
    for offset in (0.4, -0.3):
        state = LateralState(delta_lat=offset, theta=0.02)
        out.append(build_lateral_problem(state, dyn, tuning))
    out.append(build_following_problem(
        LongitudinalState(D=30.0, v=20.0, a=0.3),
        LeadMeasurement(v_l=18.0, D=30.0), LongTuning()))
    return [(spec, solve(spec).trajectory) for spec in out]


def line_search_stack(spec, traj, reg=1e-6, t_scale=1e4):
    """The 14 candidates [vec X, vec U] the line search scores from traj."""
    step, _, _, _ = direction(traj, spec, reg, t_scale)
    return _flat(traj) + LINE_SEARCH_STEPS[:, None] * trajectory_step(spec,
                                                                      step)


def _barrier_args(spec, w):
    """Running (..., N, T) and terminal (..., T') barrier arguments of w,
    in step order (the problem's operator sorts its columns by kind)."""
    N, T = spec.horizon, len(spec.barriers)
    run, term = spec.barriers, spec.terminal_barriers
    terms = ([run[j] for j in _stacked(run)] * N
             + [term[j] for j in _stacked(term)])
    order = _stacked(terms)
    Z = np.take(spec._columns.arguments(w), np.argsort(order), axis=-1)
    return Z[..., :N * T].reshape(Z.shape[:-1] + (N, T)), Z[..., N * T:]


class TestBarrierOperator:
    """One product with the problem's barrier operator gives every barrier
    argument of a trajectory, or of each row of a stack."""

    @staticmethod
    def _reference(spec, w):
        N, n = spec.horizon, spec.n
        X = w[:(N + 1) * n].reshape(N + 1, n)
        U = w[(N + 1) * n:].reshape(N, spec.m)
        run, term = barrier_arguments_reference(
            X, U, _plain_terms(spec.barriers),
            _plain_terms(spec.terminal_barriers))
        return (run[:, _stacked(spec.barriers)],
                term[_stacked(spec.terminal_barriers)])

    def test_planner_problems_match_the_reference_to_the_bit(self):
        rng = np.random.default_rng(31)
        problems = planner_problems()
        for spec, plan in problems:
            ws = line_search_stack(spec, plan)
            ws = np.vstack([ws, ws + rng.normal(size=ws.shape)])
            Zr, Zt = _barrier_args(spec, ws)
            assert Zr.shape == (28, spec.horizon, len(spec.barriers))
            assert Zt.shape == (28, len(spec.terminal_barriers))
            for j, w in enumerate(ws):
                zr, zt = _barrier_args(spec, w)
                want_r, want_t = self._reference(spec, w)
                np.testing.assert_array_equal(zr, want_r)
                np.testing.assert_array_equal(zt, want_t)
                np.testing.assert_array_equal(Zr[j], want_r)
                np.testing.assert_array_equal(Zt[j], want_t)
        # both lane-centering branches, and the following problem's gap
        # and acceleration exponentials at every step and at x_N
        lateral_pos, lateral_neg, (following, _) = problems
        assert [spec.terminal_barriers[0].sel_x[0]
                for spec, _ in (lateral_pos, lateral_neg)] == [1.0, -1.0]
        assert len(following.terminal_barriers) == 3

    def test_general_selectors_match_the_reference_closely(self):
        rng = np.random.default_rng(32)
        for trial in range(8):
            spec, nominal = random_barrier_problem(rng, 1 + trial % 2)
            # a lane-centering term on a general selector, with an offset
            # that the difference cancels
            lane = BarrierTerm(BarrierKind.EXP_LANE_CENTERING,
                               -rng.normal(size=spec.n), np.zeros(spec.m),
                               offset=0.7, q1=0.3, q2=0.4)
            spec = dataclasses.replace(spec, barriers=spec.barriers + (lane,))
            ws = line_search_stack(spec, nominal)
            Zr, Zt = _barrier_args(spec, ws)
            for j, w in enumerate([_flat(nominal)] + list(ws)):
                zr, zt = _barrier_args(spec, w)
                want_r, want_t = self._reference(spec, w)
                assert _rel_err(zr, want_r) < 1e-13
                assert _rel_err(zt, want_t) < 1e-13
                if j:
                    assert _rel_err(Zr[j - 1], want_r) < 1e-13
                    assert _rel_err(Zt[j - 1], want_t) < 1e-13

    def test_stacked_costs_equal_single_costs_to_the_bit(self):
        # the line search keeps a batch row's quadratic cost and arguments
        # and re-scores the row alone at a new sharpness, so a plan is the
        # same to the bit only if the batch scores like one trajectory
        for spec, plan in planner_problems():
            ws = line_search_stack(spec, plan)
            cols = spec._columns
            Zs = cols.arguments(ws)
            for t_scale in (1.0, 1e4):
                costs = _quadratic(ws, spec) + cols.cost(Zs, t_scale)
                assert costs.shape == (14,)
                singles = [_quadratic(w, spec) + cols.cost(z, t_scale)
                           for w, z in zip(ws, Zs)]
                np.testing.assert_array_equal(costs, singles)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

TIGHT = SolverConfig(max_outer_iterations=60, cost_tolerance=1e-12,
                     regularization_init=1e-10)


class TestSolve:
    def test_matches_dp_oracle_on_random_affine_problems(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            spec, (A, B, d, Q, R, Qf, x_ref, x0, N) = random_affine_problem(rng)
            res = solve(spec, config=TIGHT)
            _, us = lqr_dp_solve(A, B, d, Q, R, Qf, x_ref, x0, N)
            assert res.info.converged
            np.testing.assert_allclose(res.trajectory.controls, us, atol=1e-6)

    def test_result_is_a_trajectory_at_its_cost_when_the_open_loop_grows(self):
        # from a cold start whose rollout grows by orders of magnitude, the
        # result is still a trajectory of the dynamics, strictly inside its
        # log range, and the cost reported is that trajectory's
        rng = np.random.default_rng(2024)
        grown = 0
        for _ in range(8):
            spec, _ = random_affine_problem(rng)
            dyn, N = spec.dynamics, spec.horizon
            growth = np.abs(_lifted_map(dyn.A, dyn.B, N)).max()
            if growth <= _OPEN_LOOP_GROWTH_MAX:
                continue
            grown += 1
            spec = dataclasses.replace(spec, barriers=(BarrierTerm.log_range(
                spec.n, spec.m, lower=-0.3, upper=0.3, control_index=0),))
            res = solve(spec)
            traj, info = res.trajectory, res.info
            assert np.isfinite(info.cost) and info.cost < info.cost_history[0]
            # the batched score sums in another order than one trajectory's
            assert info.cost == pytest.approx(
                total_cost(traj, spec, info.barrier_t_scale), rel=1e-14)
            assert all(lo > 0.0 and hi > 0.0
                       for lo, hi in info.log_range_margins)
            # step by step: a rollout of the controls would amplify their
            # rounding by the growth
            X, U = traj.states, traj.controls
            defect = X[1:] - (X[:-1] @ dyn.A.T + U @ dyn.B.T + dyn._drift)
            assert np.array_equal(X[0], spec.x0)
            assert np.abs(defect).max() < 1e-12 * np.abs(X).max()
        assert grown == 3

    def test_log_range_bound_strictly_interior(self):
        term = BarrierTerm.log_range(1, 1, lower=-0.1, upper=0.1,
                                     control_index=0)
        spec = scalar_problem(barriers=[term])
        res = solve(spec)
        u0 = res.trajectory.controls[0, 0]
        assert -0.1 < u0 <= -0.09
        lo_margin, hi_margin = res.info.log_range_margins[0]
        assert lo_margin > 0.0 and hi_margin > 0.0
        # grid oracle at the sharpness the solver finished with
        t = res.info.barrier_t_scale

        def augmented(u):
            return (1.0 + u * u + (1.0 + u) ** 2
                    - (1.0 / t) * (math.log(u + 0.1) + math.log(0.1 - u)))

        u_grid, _ = grid_minimize(augmented, -0.1, 0.1)
        assert u0 == pytest.approx(u_grid, abs=2e-4)

    def test_terminal_log_range_margins_follow_the_running_ones(self):
        dyn = AffineDynamics(A=[[1.0, 0.1], [0.0, 1.0]], B=[[0.0], [0.1]])
        cost = QuadraticCost(Q=np.eye(2), R=[[1.0]], x_ref=[0.0, 0.0])
        spec = ProblemSpec(
            dynamics=dyn, horizon=5, cost=cost, terminal_cost=cost,
            x0=[0.0, 1.0],
            barriers=(BarrierTerm.log_range(2, 1, lower=-1.0, upper=1.0,
                                            control_index=0),),
            terminal_barriers=(BarrierTerm.log_range(
                2, 1, lower=-1.0, upper=2.0, state_index=1),))
        res = solve(spec)
        u = res.trajectory.controls[:, 0]
        x_N = res.trajectory.states[-1, 1]
        assert res.info.log_range_margins == (
            (u.min() + 1.0, 1.0 - u.max()), (x_N + 1.0, 2.0 - x_N))

    def test_monotone_descent_at_fixed_sharpness(self):
        rng = np.random.default_rng(5)
        cfg = SolverConfig(barrier_t_init=50.0, barrier_t_max=50.0)
        for _ in range(5):
            spec, _ = random_affine_problem(rng, n=3, m=1, N=20)
            spec = dataclasses.replace(spec, barriers=(BarrierTerm.log_range(
                3, 1, lower=-3.0, upper=3.0, control_index=0),))
            res = solve(spec, config=cfg)
            hist = res.info.cost_history
            assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_optimal_warm_start_one_iteration(self):
        term = BarrierTerm.log_range(1, 1, lower=-0.4, upper=0.4,
                                     control_index=0)
        spec = scalar_problem(barriers=[term])
        cfg = SolverConfig(barrier_t_init=100.0, barrier_t_max=100.0,
                           max_outer_iterations=60, cost_tolerance=1e-10)
        first = solve(spec, config=cfg)
        again = solve(spec, warm_start=first.trajectory.controls, config=cfg)
        assert again.info.converged
        assert again.info.iterations == 1

    def test_warm_start_outside_range_rejected(self):
        # the warm start is taken as given: an infeasible one is refused
        # as an infeasible start state is
        term = BarrierTerm.log_range(1, 1, lower=-0.1, upper=0.1,
                                     control_index=0)
        spec = scalar_problem(barriers=[term])
        with pytest.raises(InfeasibleTrajectoryError,
                           match=r"outside \(-0\.1, 0\.1\)"):
            solve(spec, warm_start=[[5.0]])

    def test_result_never_shares_the_warm_start(self, monkeypatch):
        # neither a solve that keeps its start (an optimal warm start, a
        # failing backward pass) nor one that steps returns the caller's
        # array
        import cilqr_drive.ilqr as ilqr_module
        spec = scalar_problem()
        optimum = solve(spec).trajectory.controls
        zeros = np.zeros((1, 1))
        solved = [(optimum, solve(spec, warm_start=optimum)),
                  (zeros, solve(spec, warm_start=zeros))]
        monkeypatch.setattr(ilqr_module, "backward_pass", _failing_pass)
        # a fresh problem, so that solve's memo cannot answer the call
        solved.append((optimum, solve(scalar_problem(), warm_start=optimum)))
        assert solved[-1][1].gains is None
        np.testing.assert_array_equal(solved[0][1].trajectory.controls,
                                      optimum)
        for warm, res in solved:
            assert not np.shares_memory(res.trajectory.controls, warm)

    def test_iteration_cap_flagged(self):
        rng = np.random.default_rng(9)
        spec, _ = random_affine_problem(rng, n=4, m=2, N=30)
        res = solve(spec, config=SolverConfig(max_outer_iterations=1,
                                              cost_tolerance=1e-16))
        assert res.info.iterations == 1
        assert not res.info.converged

    def test_trajectory_is_dynamically_consistent(self):
        rng = np.random.default_rng(13)
        spec, _ = random_affine_problem(rng, n=3, m=1, N=15)
        res = solve(spec, config=TIGHT)
        X, U = res.trajectory.states, res.trajectory.controls
        for i in range(spec.horizon):
            np.testing.assert_allclose(
                X[i + 1], affine_step(spec.dynamics, X[i], U[i]), atol=1e-12)

    def test_result_carries_last_backward_pass_gains(self, monkeypatch):
        import cilqr_drive.ilqr as ilqr_module
        returned = []
        real = ilqr_module.backward_pass

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            returned.append(out[1])
            return out

        monkeypatch.setattr(ilqr_module, "backward_pass", spy)
        rng = np.random.default_rng(14)
        spec, _ = random_affine_problem(rng, n=3, m=1, N=15)
        res = solve(spec, config=TIGHT)
        assert len(returned) == res.info.iterations
        assert res.gains is returned[-1]

    def test_gains_none_when_no_backward_pass_succeeds(self, monkeypatch):
        import cilqr_drive.ilqr as ilqr_module
        monkeypatch.setattr(ilqr_module, "backward_pass", _failing_pass)
        res = solve(scalar_problem())
        assert not res.info.converged
        assert res.gains is None

    @pytest.mark.parametrize("cap", [1, 40])
    def test_a_plan_that_loses_its_score_returns_the_start_as_such(self, cap):
        # with Fv zeroed every formed plan is the base, here the start:
        # the accepted steps never pay, and the result describes the
        # start; one iteration's gains were taken there and stay, later
        # ones were not and go
        spec = scalar_problem()
        spec._lift.Fv = np.zeros_like(spec._lift.Fv)
        res = solve(spec, config=SolverConfig(max_outer_iterations=cap))
        traj, info = res.trajectory, res.info
        np.testing.assert_array_equal(traj.controls, np.zeros((1, 1)))
        assert info.cost == total_cost(traj, spec, info.barrier_t_scale)
        assert info.message == "plan not below the start"
        assert not info.converged
        assert info.cost_history == (total_cost(traj, spec),)
        assert (res.gains is not None) == (info.iterations == 1)
        assert info.iterations == (1 if cap == 1 else 2)

    def test_stop_messages_are_the_benchmark_stop_reasons(self, monkeypatch):
        # bench/instrument.py counts stops by message; a reworded one would
        # move its counters to stop.other without an error
        path = Path(__file__).resolve().parents[1] / "bench" / "instrument.py"
        module_spec = importlib.util.spec_from_file_location(
            "bench_instrument", path)
        instrument = importlib.util.module_from_spec(module_spec)
        # its dataclasses resolve their annotations through sys.modules
        monkeypatch.setitem(sys.modules, module_spec.name, instrument)
        module_spec.loader.exec_module(instrument)
        import cilqr_drive.ilqr as ilqr_module
        spec = scalar_problem()
        optimum = solve(spec).trajectory.controls
        messages = [
            solve(spec, warm_start=optimum).info.message,
            solve(spec, config=SolverConfig(max_outer_iterations=1)).info.message,
        ]
        real_backward = ilqr_module.backward_pass

        def climbing(*args, **kwargs):
            step, S, grad_norm, dec = real_backward(*args, **kwargs)
            return -step, S, grad_norm, dec

        with monkeypatch.context() as patch:
            # every search direction climbs
            patch.setattr(ilqr_module, "backward_pass", climbing)
            messages.append(solve(scalar_problem()).info.message)
        with monkeypatch.context() as patch:
            # a fresh problem: solve would answer a re-posed one from its
            # memo, without calling the patched pass
            patch.setattr(ilqr_module, "backward_pass", _failing_pass)
            messages.append(solve(scalar_problem()).info.message)
        # a solve converges only at a stationary iterate; the benchmark
        # still names the retired cost-decrease stop
        assert len(set(messages)) == 4
        assert set(messages) == (set(instrument.STOP_REASONS)
                                 - {"cost decrease below tolerance"})

    def test_stationary_warm_start_is_returned_unchanged(self):
        # a solve ends at its first stationary iterate, before any search:
        # a cold plan re-solved as the warm start is returned to the bit,
        # with the gains of the pass taken there (the steering planner
        # re-aims its next warm start with them)
        for spec, plan in planner_problems()[:2]:
            res = solve(spec, warm_start=plan.controls, config=WARM_CONFIG)
            np.testing.assert_array_equal(res.trajectory.controls,
                                          plan.controls)
            assert res.info.message == "stationary"
            assert res.info.converged
            assert res.info.iterations == 1
            assert res.gains is not None

    def test_bad_warm_start_shape_rejected(self):
        spec = scalar_problem()
        with pytest.raises(ValueError):
            solve(spec, warm_start=np.zeros((4, 1)))

    def test_non_finite_warm_start_rejected(self):
        # a NaN or inf control used to run to cost NaN and report a failed
        # backward pass; it is rejected like a non-finite start state
        tuning = LateralTuning()
        dyn = build_lateral_dynamics(VehicleParams(), 20.0, tuning.dt)
        spec = build_lateral_problem(LateralState(delta_lat=0.4, theta=0.02),
                                     dyn, tuning)
        for bad in (math.nan, math.inf, -math.inf):
            warm = np.zeros((spec.horizon, spec.m))
            warm[3, 0] = bad
            for config in (None, WARM_CONFIG):
                with pytest.raises(ValueError, match="warm start"):
                    solve(spec, warm_start=warm, config=config)

    @pytest.mark.parametrize("v", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_explosive_steering_model_solves_feasibly_under_the_lqr_gain(
            self, v):
        # below about 7 m/s the forward-Euler steering model's open loop
        # explodes, so its lift takes the LQR gain and a start is a rollout
        # of states up to about 1e20; a cold solve and warm solves from a
        # repeated and a moved start must stay strictly inside the steer
        # range, and each result must report its own plan's cost
        tuning = LateralTuning()
        dyn = build_lateral_dynamics(VehicleParams(), v, tuning.dt)
        spec = build_lateral_problem(LateralState(0.5, 0.02), dyn, tuning)
        assert spec._lift.K.any()
        res = solve(spec)
        moved = spec.with_start(LateralState(0.45, 0.03).as_vector())
        for problem, cfg in ((spec, None), (spec, WARM_CONFIG),
                             (moved, WARM_CONFIG)):
            if cfg is not None:
                res = solve(problem, warm_start=res.trajectory.controls,
                            config=cfg)
            info = res.info
            assert np.abs(res.trajectory.controls).max() < math.pi / 6.0
            assert min(min(pair) for pair in info.log_range_margins) > 0.0
            assert info.cost == pytest.approx(
                total_cost(res.trajectory, problem, info.barrier_t_scale),
                rel=1e-12)


class TestSolveMemo:
    """solve answers a call that re-poses its last solve under the same
    lift from a memo, with that result itself: results are immutable."""

    @staticmethod
    def _spy_passes(monkeypatch):
        import cilqr_drive.ilqr as ilqr_module
        calls, real = [], ilqr_module.backward_pass

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ilqr_module, "backward_pass", counting)
        return calls

    def test_identical_call_is_answered_without_a_backward_pass(
            self, monkeypatch):
        calls = self._spy_passes(monkeypatch)
        for spec, plan in planner_problems():
            for warm, config in ((None, None), (plan.controls, WARM_CONFIG),
                                 (plan.controls * 0.9, None)):
                first = solve(spec, warm_start=warm, config=config)
                calls.clear()
                second = solve(spec, warm_start=warm, config=config)
                assert calls == []
                _same_result(second, first)
                # repr tells every float's bits and every field's type
                assert repr(second.info) == repr(first.info)

    def test_hit_returns_the_stored_result(self):
        for spec, plan in planner_problems():
            warm = plan.controls.copy()
            first = solve(spec, warm_start=warm, config=WARM_CONFIG)
            for _ in range(2):
                assert solve(spec, warm_start=warm, config=WARM_CONFIG) is first
            # the caller's warm start stays theirs, and writable
            assert warm.flags.writeable
            for a in (first.trajectory.states, first.trajectory.controls,
                      first.gains):
                assert not np.shares_memory(a, warm)

    def test_every_write_into_a_result_raises(self):
        spec, plan = planner_problems()[0]
        want = solve(spec, warm_start=plan.controls)
        expected = copy.deepcopy(want)
        traj, info = want.trajectory, want.info
        for array in (traj.states, traj.controls, want.gains):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = np.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            info.cost = np.nan
        with pytest.raises(AttributeError):
            info.cost_history.append(np.nan)
        with pytest.raises(AttributeError):
            info.log_range_margins.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.controls = np.zeros_like(plan.controls)
        _same_result(solve(spec, warm_start=plan.controls), expected)

    def test_configs_differing_in_field_types_solve_alike(self, monkeypatch):
        # the same values as int, numpy and Python numbers: stored as an
        # int and floats, so a hit reports what a fresh solve under either
        # config reports (WARM_CONFIG keeps its start sharpness, which a
        # solve reports as given)
        spec, plan = planner_problems()[2]
        config = WARM_CONFIG
        other = dataclasses.replace(
            config, max_outer_iterations=np.int64(1),
            barrier_t_init=int(config.barrier_t_init),
            cost_tolerance=np.float64(config.cost_tolerance))
        assert other == config
        assert ([type(v) for v in vars(other).values()]
                == [type(v) for v in vars(config).values()])
        first = solve(spec, warm_start=plan.controls, config=config)
        calls = self._spy_passes(monkeypatch)
        assert solve(spec, warm_start=plan.controls, config=other) is first
        assert calls == []
        fresh = fresh_problem(spec, spec.x0, dynamics=spec.dynamics,
                              x_ref=spec.cost.x_ref)
        want = solve(fresh, warm_start=plan.controls, config=other)
        _same_result(first, want)
        assert repr(first.info) == repr(want.info)

    @pytest.mark.parametrize("change", ["x0", "warm start", "config",
                                        "drift", "reference", "A"])
    def test_any_changed_input_recomputes(self, change, monkeypatch):
        # the following problem: it has a drift; each change is one bit
        spec, plan = planner_problems()[2]
        warm, config = plan.controls, WARM_CONFIG
        dyn = spec.dynamics

        def nudged(a):
            out = np.array(a, dtype=float)
            out.flat[0] = np.nextafter(out.flat[0], np.inf)
            return out

        solve(spec, warm_start=warm, config=config)
        if change == "x0":
            spec = spec.with_start(nudged(spec.x0))
        elif change == "warm start":
            warm = nudged(warm)
        elif change == "config":
            config = dataclasses.replace(config, cost_tolerance=2e-4)
        elif change == "drift":
            # solve reads C w: the lead speed's entry of w moves it
            dyn = dyn.with_drift(dyn.w + [0.0, 1e-9, 0.0])
            assert not np.array_equal(dyn._drift, spec.dynamics._drift)
            spec = spec.with_start(spec.x0, dynamics=dyn)
        elif change == "reference":
            spec = spec.with_start(spec.x0, x_ref=nudged(spec.cost.x_ref))
        else:
            dyn = AffineDynamics(A=nudged(dyn.A), B=dyn.B, C=dyn.C, w=dyn.w)
            spec = spec.with_start(spec.x0, dynamics=dyn)
        fresh = fresh_problem(spec, spec.x0, dynamics=spec.dynamics,
                              x_ref=spec.cost.x_ref)
        calls = self._spy_passes(monkeypatch)
        res = solve(spec, warm_start=warm, config=config)
        assert calls
        want = solve(fresh, warm_start=warm, config=config)
        _same_result(res, want)
        assert repr(res.info) == repr(want.info)

    def test_alternating_problems_keep_their_entries(self, monkeypatch):
        # two skeletons, as the steering and following planners alternate
        problems = planner_problems()[1:]
        firsts = [solve(spec, warm_start=plan.controls, config=WARM_CONFIG)
                  for spec, plan in problems]
        calls = self._spy_passes(monkeypatch)
        for _ in range(2):
            for (spec, plan), first in zip(problems, firsts):
                _same_result(solve(spec, warm_start=plan.controls,
                                   config=WARM_CONFIG), first)
        assert calls == []

    def test_invalid_warm_starts_raise_on_a_repeat(self, monkeypatch):
        spec, plan = planner_problems()[0]
        first = solve(spec, warm_start=plan.controls)
        bad = plan.controls.copy()
        bad[3, 0] = np.nan
        term = BarrierTerm.log_range(1, 1, lower=-0.1, upper=0.1,
                                     control_index=0)
        bounded = scalar_problem(barriers=[term])
        for _ in range(2):
            with pytest.raises(ValueError, match="shape"):
                solve(spec, warm_start=plan.controls[:-1])
            with pytest.raises(ValueError, match="warm start"):
                solve(spec, warm_start=bad)
            with pytest.raises(InfeasibleTrajectoryError):
                solve(bounded, warm_start=[[5.0]])
        # a solve that raised stored nothing: the memo still holds the last
        # solve that returned
        calls = self._spy_passes(monkeypatch)
        _same_result(solve(spec, warm_start=plan.controls), first)
        assert calls == []


def _failing_pass(*args, **kwargs):
    raise BackwardPassError("forced")


# ---------------------------------------------------------------------------
# solve on random problems (Hypothesis)
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=30,
                             deadline=None, database=None)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
control_sizes = st.sampled_from((1, 2))


def _same_result(a, b):
    np.testing.assert_array_equal(a.trajectory.states, b.trajectory.states)
    np.testing.assert_array_equal(a.trajectory.controls,
                                  b.trajectory.controls)
    assert a.info == b.info
    assert (a.gains is None) == (b.gains is None)
    if a.gains is not None:
        np.testing.assert_array_equal(a.gains, b.gains)


class TestSolveProperties:
    """Each problem is feasible at its first rollout: random_barrier_problem
    with the nominal's controls as the warm start."""

    @PROPERTY_SETTINGS
    @given(seed=seeds, m=control_sizes)
    def test_log_range_margins_stay_positive(self, seed, m):
        spec, nominal = random_barrier_problem(np.random.default_rng(seed), m)
        res = solve(spec, warm_start=nominal.controls)
        # two running log ranges, then the one on x_N
        assert len(res.info.log_range_margins) == 3
        assert all(lo > 0.0 and hi > 0.0
                   for lo, hi in res.info.log_range_margins)

    @PROPERTY_SETTINGS
    @given(seed=seeds, m=control_sizes,
           sharpness=st.sampled_from((1.0, 50.0, 1e4)))
    def test_cost_strictly_decreases_at_fixed_sharpness(self, seed, m,
                                                        sharpness):
        spec, nominal = random_barrier_problem(np.random.default_rng(seed), m)
        cfg = SolverConfig(barrier_t_init=sharpness, barrier_t_max=sharpness)
        hist = solve(spec, warm_start=nominal.controls,
                     config=cfg).info.cost_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    @PROPERTY_SETTINGS
    @given(seed=seeds, m=control_sizes,
           sharpness=st.sampled_from((1.0, 50.0, 1e4)))
    def test_step_is_the_riccati_step(self, seed, m, sharpness):
        # without lane centering, whose terms couple two steps, the
        # condensed Newton step is the per-step Riccati pass rolled out
        # through its feedback at lambda = 1; at a small regularization the
        # two differ only by rounding
        spec, nominal = random_barrier_problem(np.random.default_rng(seed), m,
                                               lane_centering=False)
        step, _, grad_norm, dec = direction(nominal, spec, 1e-9, sharpness)
        k, K, dec_ref, grad_ref = _reference_pass(spec, nominal, 1e-9,
                                                  sharpness)
        dyn = spec.dynamics
        xs, us = closed_loop_rollout(dyn.A, dyn.B, dyn._drift, nominal.states,
                                     nominal.controls, k, K, 1.0, spec.x0)
        want = np.concatenate([xs.ravel(), us.ravel()]) - _flat(nominal)
        assert _rel_err(trajectory_step(spec, step), want) < 1e-8
        assert dec == pytest.approx(dec_ref, rel=1e-8)
        assert grad_norm == pytest.approx(grad_ref, rel=1e-8)

    @PROPERTY_SETTINGS
    @given(seed=seeds, m=control_sizes,
           sharpness=st.sampled_from((1.0, 50.0, 1e4)))
    @example(seed=715237, m=1, sharpness=1.0)       # condition number 9e11
    def test_step_is_the_newton_step(self, seed, m, sharpness):
        # with every barrier kind, lane centering's two-step terms too, the
        # condensed step and its start-state gains solve the dense Newton
        # system in the controls to rounding, whatever its condition
        # number (at the example's, the two solutions differ by 6e-5), and
        # the expected decrease and largest stage gradient are the system's
        spec, nominal = random_barrier_problem(np.random.default_rng(seed), m)
        dv, gains, grad_norm, dec = direction(nominal, spec, 1e-9, sharpness)
        dyn, nx = spec.dynamics, (spec.horizon + 1) * spec.n
        problem = (nominal.states, nominal.controls, dyn.A, dyn.B,
                   spec.cost.Q, spec.cost.R, spec.cost.x_ref,
                   spec.terminal_cost.Q, spec.terminal_cost.x_ref,
                   _plain_terms(spec.barriers),
                   _plain_terms(spec.terminal_barriers))
        g, H, dg_dx0 = newton_system_reference(*problem, sharpness)
        _, _, dec_ref, grad_ref = newton_step_reference(*problem, 1e-9,
                                                        sharpness)
        H = H + 1e-9 * np.eye(len(g))
        assert _backward_err(H, trajectory_step(spec, dv)[nx:], g) < 1e-13
        assert _backward_err(H, gains, dg_dx0) < 1e-13
        assert dec == pytest.approx(dec_ref, rel=1e-8)
        assert grad_norm == pytest.approx(grad_ref, rel=1e-8)

    @PROPERTY_SETTINGS
    @given(seed=seeds, m=control_sizes, grows=st.booleans(),
           sharpness=st.sampled_from((None, 1.0, 1e4)))
    def test_a_result_describes_itself(self, seed, m, grows, sharpness):
        # the margins and the cost reported are those of the trajectory
        # returned, on open loops below and above _OPEN_LOOP_GROWTH_MAX,
        # under the sharpness schedule or at a fixed sharpness
        spec, nominal = random_barrier_problem(
            np.random.default_rng(seed), m, growth=1e5 if grows else None)
        assume(bool(spec._lift.K.any()) == grows)
        cfg = (None if sharpness is None else
               SolverConfig(barrier_t_init=sharpness, barrier_t_max=sharpness))
        res = solve(spec, warm_start=nominal.controls, config=cfg)
        traj, info = res.trajectory, res.info
        Zr, Zt = _barrier_args(spec, _flat(traj))
        margins = []
        for Z, terms in ((Zr, spec.barriers), (Zt[None], spec.terminal_barriers)):
            for col, j in enumerate(_stacked(terms)):
                if terms[j].kind is BarrierKind.LOG_RANGE:
                    z = Z[:, col]
                    margins.append((float(z.min() - terms[j].lower),
                                    float(terms[j].upper - z.max())))
        assert info.log_range_margins == tuple(margins)
        assert info.cost == pytest.approx(
            total_cost(traj, spec, info.barrier_t_scale), rel=1e-12)
        # each entry is scored at its iteration's sharpness, so only a
        # fixed one makes the history a descent; there the plan returned
        # is the start or beats the start's score by its own exact cost
        hist = info.cost_history
        if info.message == "plan not below the start":
            assert not info.converged and len(hist) == 1
            np.testing.assert_array_equal(traj.controls, nominal.controls)
        if sharpness is not None:
            assert all(b <= a for a, b in zip(hist, hist[1:]))
            assert (np.array_equal(traj.controls, nominal.controls)
                    or info.cost < hist[0])
        _same_result(res, solve(spec, warm_start=nominal.controls, config=cfg))

    @PROPERTY_SETTINGS
    @given(seed=seeds, m=control_sizes)
    def test_margins_are_those_of_the_reference_arguments(self, seed, m):
        # the draws interleave all three kinds, with two running log ranges
        # and one terminal one: the margins listed are each log-range
        # term's smallest (z - lower, upper - z) over the returned
        # trajectory, running terms first in list order, from arguments
        # formed step by step and term by term
        spec, nominal = random_barrier_problem(np.random.default_rng(seed), m)
        res = solve(spec, warm_start=nominal.controls)
        run, term = barrier_arguments_reference(
            res.trajectory.states, res.trajectory.controls,
            _plain_terms(spec.barriers), _plain_terms(spec.terminal_barriers))
        want = [(z.min() - t.lower, t.upper - z.max())
                for Z, terms in ((run, spec.barriers),
                                 (term[None], spec.terminal_barriers))
                for z, t in zip(Z.T, terms) if t.kind is BarrierKind.LOG_RANGE]
        assert len(want) == 3
        scale = 1.0 + max(np.abs(run).max(), np.abs(term).max())
        np.testing.assert_allclose(res.info.log_range_margins, want, rtol=0,
                                   atol=1e-13 * scale)

    @PROPERTY_SETTINGS
    @given(seed=seeds, m=control_sizes)
    def test_repeat_solves_are_bit_identical(self, seed, m):
        # the repeat is on the problem built anew, so that it computes
        # rather than being answered from the memo
        spec, nominal = random_barrier_problem(np.random.default_rng(seed), m)
        _same_result(solve(spec, warm_start=nominal.controls),
                     solve(fresh_problem(spec, spec.x0),
                           warm_start=nominal.controls))

    @PROPERTY_SETTINGS
    @given(seed=seeds, m=control_sizes)
    def test_re_aimed_problem_solves_like_a_fresh_one(self, seed, m):
        # a skeleton at other dynamics, start and reference, re-aimed at
        # the drawn ones, against the problem built from the drawn parts
        rng = np.random.default_rng(seed)
        spec, nominal = random_barrier_problem(rng, m)
        x_ref = rng.normal(size=spec.n) * 0.5
        skeleton = fresh_problem(
            spec, np.zeros(spec.n),
            dynamics=AffineDynamics(A=np.eye(spec.n), B=np.ones((spec.n, m))))
        moved = skeleton.with_start(spec.x0, dynamics=spec.dynamics,
                                    x_ref=x_ref)
        fresh = fresh_problem(spec, spec.x0, x_ref=x_ref)
        _same_result(solve(moved, warm_start=nominal.controls),
                     solve(fresh, warm_start=nominal.controls))


class TestValidation:
    def test_dynamics_validation(self):
        with pytest.raises(ValueError):
            AffineDynamics(A=np.ones((2, 3)), B=np.ones((2, 1)))
        with pytest.raises(ValueError):
            AffineDynamics(A=np.eye(2), B=np.ones((3, 1)))
        with pytest.raises(ValueError):
            AffineDynamics(A=np.eye(2), B=np.ones((2, 1)), C=np.eye(2))

    def test_dynamics_reject_non_finite_drift_factors_by_name(self):
        # C and w are checked before C @ w (inf * 0 would warn, an error in
        # this suite); a product of finite factors that overflows is the
        # drift's own fault
        A, B = np.eye(2), np.ones((2, 1))
        C_inf = np.eye(2)
        C_inf[0, 0] = math.inf
        for name, C, w in (("C", C_inf, [0.0, 0.2]),
                           ("w", np.eye(2), [math.inf, 0.2]),
                           ("w", np.eye(2), [math.nan, 0.2]),
                           ("drift", np.eye(2) * 1e300, [1e300, 0.2])):
            with pytest.raises(ValueError, match=f"^{name} contains"):
                AffineDynamics(A=A, B=B, C=C, w=w)
        dyn = AffineDynamics(A=A, B=B, C=np.eye(2) * 1e300, w=[0.0, 0.0])
        for name, w in (("w", [math.inf, 0.0]), ("w", [0.0, math.nan]),
                        ("drift", [1e300, 0.0])):
            with pytest.raises(ValueError, match=f"^{name} contains"):
                dyn.with_drift(w)

    def test_cost_validation(self):
        with pytest.raises(ValueError):
            QuadraticCost(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), R=[[1.0]],
                          x_ref=[0.0, 0.0])
        with pytest.raises(ValueError):
            QuadraticCost(Q=np.eye(2), R=[[0.0]], x_ref=[0.0, 0.0])
        with pytest.raises(ValueError):
            QuadraticCost(Q=-np.eye(2), R=[[1.0]], x_ref=[0.0, 0.0])

    def test_cost_rejects_non_finite_entries(self):
        Q_inf = np.eye(2)
        Q_inf[0, 0] = math.inf
        for Q, R, x_ref in ((Q_inf, [[1.0]], [0.0, 0.0]),
                            (np.eye(2), [[math.nan]], [0.0, 0.0]),
                            (np.eye(2), [[1.0]], [math.nan, 0.0])):
            with pytest.raises(ValueError, match="non-finite"):
                QuadraticCost(Q=Q, R=R, x_ref=x_ref)

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_outer_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(gradient_tolerance=0.0)
        with pytest.raises(ValueError):
            SolverConfig(barrier_t_init=10.0, barrier_t_max=5.0)

    def test_solver_config_rejects_non_finite_fields(self):
        # NaN fails no order check, so a NaN sharpness cap used to stop the
        # schedule at its start and a NaN tolerance never to converge
        for name in ("cost_tolerance", "gradient_tolerance",
                     "regularization_init", "barrier_t_init", "barrier_t_max"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    SolverConfig(**{name: bad})
                with pytest.raises(ValueError, match=name):
                    dataclasses.replace(WARM_CONFIG, **{name: bad})

    def test_solver_config_is_frozen(self):
        # a field set after construction would skip the checks above
        for cfg in (SolverConfig(), WARM_CONFIG):
            for name, value in (("barrier_t_max", 0.5),
                                ("max_outer_iterations", 0)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(cfg, name, value)
        # a changed copy runs them again
        with pytest.raises(ValueError):
            dataclasses.replace(WARM_CONFIG, barrier_t_max=0.5)
        longer = dataclasses.replace(WARM_CONFIG, max_outer_iterations=12)
        assert (longer.barrier_t_init, longer.max_outer_iterations,
                longer.gradient_tolerance) == (1e4, 12, 1e-3)
        assert WARM_CONFIG.max_outer_iterations == 1

    def test_counts_must_be_integers(self):
        # a float count used to pass construction and fail inside numpy
        for bad in (2.5, 2.0, "3", None):
            with pytest.raises(ValueError, match="max_outer_iterations"):
                SolverConfig(max_outer_iterations=bad)
            with pytest.raises(ValueError, match="horizon"):
                dataclasses.replace(scalar_problem(), horizon=bad)
        for bad in (0, -1, np.int64(0)):
            with pytest.raises(ValueError, match="must be an integer >= 1"):
                SolverConfig(max_outer_iterations=bad)
        # numpy integers are integers
        cfg = SolverConfig(max_outer_iterations=np.int64(2))
        spec = dataclasses.replace(scalar_problem(), horizon=np.int32(3))
        assert solve(spec, config=cfg).info.iterations <= 2

    def test_with_start_shares_barriers_and_checks_replacements(self):
        term = BarrierTerm.log_range(1, 1, lower=-1.0, upper=1.0,
                                     control_index=0)
        spec = scalar_problem(barriers=[term])
        moved = spec.with_start([2.0], x_ref=[0.5])
        assert moved.barriers is spec.barriers
        assert moved.dynamics is spec.dynamics
        np.testing.assert_array_equal(moved.x0, [2.0])
        np.testing.assert_array_equal(spec.x0, [1.0])
        for got, kept in ((moved.cost, spec.cost),
                          (moved.terminal_cost, spec.terminal_cost)):
            np.testing.assert_array_equal(got.x_ref, [0.5])
            np.testing.assert_array_equal(kept.x_ref, [0.0])
            assert got.Q is kept.Q and got.R is kept.R
            with pytest.raises(ValueError):
                got.x_ref[0] = 0.0
        with pytest.raises(ValueError):
            spec.with_start([1.0, 2.0])
        with pytest.raises(ValueError):
            spec.with_start([1.0, 2.0], dynamics=AffineDynamics(
                A=np.eye(2), B=np.ones((2, 1))))
        for x_ref in ([0.0, 1.0], [math.nan]):
            with pytest.raises(ValueError):
                spec.with_start([1.0], x_ref=x_ref)

    def test_problem_is_frozen(self):
        spec = scalar_problem(barriers=[BarrierTerm.log_range(
            1, 1, lower=-1.0, upper=1.0, control_index=0)])
        assert isinstance(spec.barriers, tuple)
        assert isinstance(spec.terminal_barriers, tuple)
        for name, value in (("x0", np.zeros(1)), ("barriers", ()),
                            ("cost", spec.terminal_cost), ("horizon", 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
        with pytest.raises(ValueError):
            spec.x0[0] = 0.0

    def test_barrier_terms_are_immutable(self):
        term = BarrierTerm.log_range(2, 1, lower=-1.0, upper=1.0,
                                     state_index=0)
        with pytest.raises(AttributeError):
            term.upper = 2.0
        with pytest.raises(ValueError):
            term.sel_x[1] = 1.0

    def test_dynamics_are_immutable(self):
        A, B = np.eye(2), np.ones((2, 1))
        C, w = np.eye(2), np.array([0.5, -0.5])
        dyn = AffineDynamics(A=A, B=B, C=C, w=w)
        with pytest.raises(AttributeError):
            dyn.A = np.zeros((2, 2))
        with pytest.raises(AttributeError):
            dyn.w = np.zeros(2)
        for arr in (dyn.A, dyn.B, dyn.C, dyn.w, dyn._drift):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # the caller's own arrays are copied, not frozen
        A[0, 0] = 3.0
        w[0] = 2.0
        assert dyn.A[0, 0] == 1.0
        np.testing.assert_array_equal(
            rollout(dyn, np.zeros(2), np.zeros((1, 1))).states[1], [0.5, -0.5])

    def test_costs_are_immutable(self):
        Q = np.eye(2)
        cost = QuadraticCost(Q=Q, R=[[1.0]], x_ref=[0.0, 0.0])
        with pytest.raises(AttributeError):
            cost.Q = 2.0 * np.eye(2)
        with pytest.raises(ValueError):
            cost.Q[0, 0] = 2.0
        Q[0, 0] = 5.0
        assert cost.Q[0, 0] == 1.0

    def test_terminal_barrier_may_not_touch_controls(self):
        term = BarrierTerm.log_range(1, 1, lower=-1.0, upper=1.0,
                                     control_index=0)
        with pytest.raises(ValueError):
            scalar_problem(terminal_barriers=[term])
