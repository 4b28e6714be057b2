"""Core solver tests: rollout, costs, barriers, passes, and solve()."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    backward_pass,
    barrier_value_and_derivatives,
    forward_pass,
    rollout,
    solve,
    total_cost,
)
from oracles import (central_diff_grad, central_diff_hess,
                     closed_loop_rollout, grid_minimize, lqr_dp_gains,
                     lqr_dp_solve, riccati_backward_reference)

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


# ---------------------------------------------------------------------------
# backward / forward passes
# ---------------------------------------------------------------------------

class TestPasses:
    def test_backward_zero_cost_zero_gains(self):
        dyn = AffineDynamics(A=np.eye(2), B=np.ones((2, 1)))
        cost = QuadraticCost(Q=np.zeros((2, 2)), R=[[1.0]], x_ref=[0.0, 0.0])
        spec = ProblemSpec(dynamics=dyn, horizon=4, cost=cost,
                           terminal_cost=cost, x0=[0.0, 0.0])
        traj = rollout(dyn, spec.x0, np.zeros((4, 1)))
        gains, dec = backward_pass(traj, spec, 0.0)
        np.testing.assert_allclose(gains.k, 0.0, atol=1e-15)
        np.testing.assert_allclose(gains.K, 0.0, atol=1e-15)
        assert dec == pytest.approx(0.0, abs=1e-15)

    def test_feedback_matches_riccati_gains(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec, (A, B, d, Q, R, Qf, x_ref, x0, N) = random_affine_problem(
                rng, n=4, m=1, with_drift=False, with_ref=False)
            traj = rollout(spec.dynamics, spec.x0,
                           rng.normal(size=(spec.horizon, 1)) * 0.1)
            gains, _ = backward_pass(traj, spec, 0.0)
            ref = lqr_dp_gains(A, B, Q, R, Qf, spec.horizon)
            for i in range(spec.horizon):
                np.testing.assert_allclose(gains.K[i], -ref[i], atol=1e-9)

    def test_backward_failure_signal(self):
        spec = scalar_problem()
        traj = rollout(spec.dynamics, spec.x0, np.zeros((1, 1)))
        with pytest.raises(BackwardPassError):
            backward_pass(traj, spec, -100.0)

    def test_forward_lambda_zero_keeps_nominal(self):
        spec = scalar_problem()
        traj = rollout(spec.dynamics, spec.x0, np.array([[0.2]]))
        gains, _ = backward_pass(traj, spec, 0.0)
        same = forward_pass(traj, gains, 0.0, spec)
        np.testing.assert_allclose(same.controls, traj.controls, atol=1e-15)

    def test_forward_full_step_is_exact_newton_on_quadratic(self):
        spec = scalar_problem()
        traj = rollout(spec.dynamics, spec.x0, np.zeros((1, 1)))
        gains, _ = backward_pass(traj, spec, 0.0)
        stepped = forward_pass(traj, gains, 1.0, spec)
        assert stepped.controls[0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert total_cost(stepped, spec) == pytest.approx(1.5, abs=1e-12)


def random_barrier_problem(rng, m):
    """Random problem with every barrier kind, feasible at its rollout.

    Returns the problem and a nominal trajectory rolled out from small
    random controls.  Log-range bounds straddle the nominal with a margin.
    """
    n, N = 4, int(rng.integers(5, 31))
    A = rng.normal(size=(n, n)) * 0.3 + np.eye(n) * 0.9
    A *= min(1.0, 1.02 / np.max(np.abs(np.linalg.eigvals(A))))
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
                 upper=t.upper, q1=t.q1, q2=t.q2, sign=t.sign)
            for t in terms]


def _rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                 / max(np.max(np.abs(np.asarray(b))), 1e-300))


class TestPassesAgainstReference:
    def test_backward_pass_matches_per_step_reference(self):
        rng = np.random.default_rng(77)
        for trial in range(16):
            m = 1 if trial % 4 < 2 else 2
            spec, nominal = random_barrier_problem(rng, m)
            reg = float(10.0 ** rng.uniform(-6.0, 0.0))
            t_scale = float(5.0 ** rng.integers(0, 4))
            gains, dec = backward_pass(nominal, spec, reg, t_scale)
            N, dyn = spec.horizon, spec.dynamics
            k, K, dec_ref, gn_ref = riccati_backward_reference(
                nominal.states, nominal.controls, [dyn.A] * N,
                [dyn.B] * N, spec.cost.Q, spec.cost.R,
                spec.cost.x_ref, spec.terminal_cost.Q,
                spec.terminal_cost.x_ref, _plain_terms(spec.barriers),
                _plain_terms(spec.terminal_barriers), reg, t_scale)
            assert _rel_err(gains.k, k) < 1e-10
            assert _rel_err(gains.K, K) < 1e-10
            assert dec == pytest.approx(dec_ref, rel=1e-10)
            assert gains.grad_norm == pytest.approx(gn_ref, rel=1e-10)

    def test_line_search_candidates_are_forward_passes(self):
        # solve scores X + lam (X_1 - X) for every lam of the backtracking
        # schedule; each must be the forward pass at that step size
        rng = np.random.default_rng(78)
        # every halving from 1 down to 1e-4, as repeated products
        halvings, lam = [], 1.0
        while lam >= 1e-4:
            halvings.append(lam)
            lam *= 0.5
        np.testing.assert_array_equal(LINE_SEARCH_STEPS, halvings)
        lams = LINE_SEARCH_STEPS.tolist()
        for trial in range(8):
            spec, nominal = random_barrier_problem(rng, 1 + trial % 2)
            gains, _ = backward_pass(nominal, spec, 1e-3)
            full = forward_pass(nominal, gains, 1.0, spec)
            X, U = nominal.states, nominal.controls
            for lam in lams:
                step = forward_pass(nominal, gains, lam, spec)
                scale = max(1.0, np.max(np.abs(step.states)))
                np.testing.assert_allclose(X + lam * (full.states - X),
                                           step.states, rtol=0, atol=1e-12 * scale)
                np.testing.assert_allclose(U + lam * (full.controls - U),
                                           step.controls, rtol=0,
                                           atol=1e-12 * scale)

    def test_forward_pass_from_moved_start_matches_per_step_rollout(self):
        # forward_pass rolls out from spec.x0, not from the nominal's first
        # state: from a moved start it applies the nominal's feedback law
        rng = np.random.default_rng(79)
        for trial in range(8):
            spec, nominal = random_barrier_problem(rng, 1 + trial % 2)
            gains, _ = backward_pass(nominal, spec, 1e-3)
            moved = spec.with_start(spec.x0 + rng.normal(size=spec.n))
            dyn = spec.dynamics
            for lam in (0.0, 0.5, 1.0):
                out = forward_pass(nominal, gains, lam, moved)
                xs, us = closed_loop_rollout(
                    dyn.A, dyn.B, dyn.C @ dyn.w, nominal.states,
                    nominal.controls, gains.k, gains.K, lam, moved.x0)
                scale = max(1.0, np.max(np.abs(xs)))
                np.testing.assert_array_equal(out.states[0], moved.x0)
                np.testing.assert_allclose(out.states, xs, rtol=0,
                                           atol=1e-12 * scale)
                np.testing.assert_allclose(out.controls, us, rtol=0,
                                           atol=1e-12 * scale)


class TestLiftedStep:
    @staticmethod
    def _read_rows_reference(O, n):
        # the value block [O_xx, O_x; O_x', .], then the control rows
        # [O_ux, O_u, O_uu]
        return np.concatenate([O[:n + 1, :n + 1].ravel(), O[n + 1:].ravel()])

    def test_propagator_maps_value_to_read_rows(self):
        rng = np.random.default_rng(91)
        for trial in range(8):
            m = 1 + trial % 2
            spec, _ = random_barrier_problem(rng, m)
            n, d = spec.n, spec.dynamics
            L = spec._L
            assert L.shape == ((n + 1) ** 2 + m * (n + 1 + m), (n + 1) ** 2)
            F = np.zeros((n + 1, n + 1 + m))
            F[:n, :n] = d.A
            F[:n, n + 1:] = d.B
            F[n, n] = 1.0
            for _ in range(8):
                V = rng.normal(size=(n + 1, n + 1))
                want = self._read_rows_reference(
                    F.T @ (0.5 * (V + V.T)) @ F, n)
                assert _rel_err(L @ V.ravel(), want) < 1e-13

    def test_re_aimed_dynamics_or_reference_match_a_fresh_problem(self):
        # a problem re-aimed at other dynamics or another reference must
        # give what a problem built fresh from the same parts gives
        rng = np.random.default_rng(92)
        for trial in range(4):
            m = 1 + trial % 2
            spec, nominal = random_barrier_problem(rng, m)
            other, _ = random_barrier_problem(rng, m)
            before, _ = backward_pass(nominal, spec, 1e-3)
            for part in ({"dynamics": other.dynamics},
                         {"x_ref": rng.normal(size=spec.n)}):
                moved = spec.with_start(spec.x0, **part)
                fresh = fresh_problem(spec, spec.x0, **part)
                got, dec = backward_pass(nominal, moved, 1e-3)
                want, dec_want = backward_pass(nominal, fresh, 1e-3)
                np.testing.assert_array_equal(got.k, want.k)
                np.testing.assert_array_equal(got.K, want.K)
                assert dec == dec_want
                assert got.grad_norm == want.grad_norm
                assert not np.array_equal(got.k, before.k)
            # and the original keeps its own
            again, _ = backward_pass(nominal, spec, 1e-3)
            np.testing.assert_array_equal(again.K, before.K)

    def test_solve_runs_one_backward_pass_per_iteration(self, monkeypatch):
        # solve calls ilqr.backward_pass through the module once per outer
        # iteration when no pass has to be retried
        import cilqr_drive.ilqr as ilqr_module
        real = ilqr_module.backward_pass
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            try:
                return real(*args, **kwargs)
            except BackwardPassError:
                calls.append("raised")
                raise

        monkeypatch.setattr(ilqr_module, "backward_pass", counting)
        rng = np.random.default_rng(93)
        problems = [random_barrier_problem(rng, 1 + t % 2) for t in range(6)]
        problems += [(random_affine_problem(rng)[0], None) for _ in range(3)]
        for spec, nominal in problems:
            warm = None if nominal is None else nominal.controls
            for config in (SolverConfig(), SolverConfig(max_outer_iterations=3)):
                calls.clear()
                res = solve(spec, warm_start=warm, config=config)
                assert "raised" not in calls
                assert len(calls) == res.info.iterations


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
        assert res.info.log_range_margins == [
            (u.min() + 1.0, 1.0 - u.max()), (x_N + 1.0, 2.0 - x_N)]

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

    def test_warm_start_outside_range_clipped_feasible(self):
        term = BarrierTerm.log_range(1, 1, lower=-0.1, upper=0.1,
                                     control_index=0)
        spec = scalar_problem(barriers=[term])
        res = solve(spec, warm_start=np.array([[5.0]]))
        assert res.info.converged
        assert -0.1 < res.trajectory.controls[0, 0] < 0.1

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
                X[i + 1], spec.dynamics.step(X[i], U[i]), atol=1e-12)

    def test_result_carries_last_backward_pass_gains(self, monkeypatch):
        import cilqr_drive.ilqr as ilqr_module
        returned = []
        real = ilqr_module.backward_pass

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            returned.append(out[0])
            return out

        monkeypatch.setattr(ilqr_module, "backward_pass", spy)
        rng = np.random.default_rng(14)
        spec, _ = random_affine_problem(rng, n=3, m=1, N=15)
        res = solve(spec, config=TIGHT)
        assert len(returned) == res.info.iterations
        assert res.gains is returned[-1]

    def test_gains_none_when_no_backward_pass_succeeds(self, monkeypatch):
        import cilqr_drive.ilqr as ilqr_module

        def failing(*args, **kwargs):
            raise BackwardPassError("forced")

        monkeypatch.setattr(ilqr_module, "backward_pass", failing)
        res = solve(scalar_problem())
        assert not res.info.converged
        assert res.gains is None

    def test_bad_warm_start_shape_rejected(self):
        spec = scalar_problem()
        with pytest.raises(ValueError):
            solve(spec, warm_start=np.zeros((4, 1)))


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
    np.testing.assert_array_equal(a.gains.k, b.gains.k)
    np.testing.assert_array_equal(a.gains.K, b.gains.K)


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
    @given(seed=seeds, m=control_sizes)
    def test_repeat_solves_are_bit_identical(self, seed, m):
        spec, nominal = random_barrier_problem(np.random.default_rng(seed), m)
        _same_result(solve(spec, warm_start=nominal.controls),
                     solve(spec, warm_start=nominal.controls))

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
        np.testing.assert_array_equal(dyn.step(np.zeros(2), np.zeros(1)),
                                      [0.5, -0.5])

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
