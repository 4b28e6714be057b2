"""Constrained iterative LQR for affine discrete-time systems.

Minimizes, over a finite horizon N,

    sum_{i=0}^{N-1} [ (x_i - x_r)' Q (x_i - x_r) + u_i' R u_i + barriers(x_i, u_i) ]
        + (x_N - x_r)' Q_f (x_N - x_r) + terminal barriers(x_N)

subject to x_{i+1} = A x_i + B u_i + C w.

Inequality constraints enter the cost through barrier terms shaped on a
linear functional of (x, u): a two-sided logarithmic barrier for hard
ranges and one-sided exponentials for soft bounds.  The log-barrier
sharpness is raised along an interior-point style schedule across outer
iterations, so converged solutions stay strictly inside their ranges.
"""
from __future__ import annotations

import copy
import dataclasses
import enum
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Exponent guard for the one-sided barriers; keeps deep violations finite
# so the line search can still rank candidate trajectories.
_EXP_ARG_MAX = 45.0

# Fixed parts of the solver schedule.  The line search scores the step
# sizes 1, 1/2, ..., 2^-13 (every halving down to 1e-4); a failed backward
# pass or search multiplies the regularization by REG_GROWTH and gives up
# above REG_MAX; an accepted step divides it by REG_GROWTH and multiplies
# the log-barrier sharpness by BARRIER_T_GROWTH.
LINE_SEARCH_STEPS = 0.5 ** np.arange(14)
LINE_SEARCH_STEPS.flags.writeable = False
REG_GROWTH = 10.0
REG_MAX = 1e2
BARRIER_T_GROWTH = 5.0


class InfeasibleTrajectoryError(RuntimeError):
    """A log-barrier argument left the strict interior of its range."""


class BackwardPassError(RuntimeError):
    """O_uu was not positive definite at the requested regularization."""


class BarrierKind(enum.Enum):
    LOG_RANGE = "log_range"
    EXP_ONE_SIDED = "exp_one_sided"
    EXP_LANE_CENTERING = "exp_lane_centering"


@dataclass(frozen=True)
class AffineDynamics:
    """Discrete-time affine map x' = A x + B u + C w.

    C and w are optional and must be supplied together; they model a
    known constant disturbance over the horizon.  Dynamics are immutable:
    frozen fields holding read-only copies, so the caller's arrays stay
    writable.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray | None = None
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B must have the same row count as A")
        if (self.C is None) != (self.w is None):
            raise ValueError("C and w must be supplied together")
        C = w = None
        if self.C is not None:
            C = np.array(self.C, dtype=float)
            w = np.array(self.w, dtype=float).ravel()
            if C.shape != (A.shape[0], w.size):
                raise ValueError("C must be n x len(w)")
            drift = C @ w
        else:
            drift = np.zeros(A.shape[0])
        for name, value in (("A", A), ("B", B), ("drift", drift)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} contains non-finite entries")
        for name, value in (("A", A), ("B", B), ("C", C), ("w", w),
                            ("_drift", drift)):
            if value is not None:
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.A @ x + self.B @ u + self._drift


@dataclass(frozen=True)
class QuadraticCost:
    """Quadratic penalty (x - x_ref)' Q (x - x_ref) + u' R u.

    Q must be symmetric PSD and R symmetric PD.  For a terminal cost R is
    simply unused.  Costs are immutable: frozen fields holding read-only
    copies of Q, R and x_ref.
    """

    Q: np.ndarray
    R: np.ndarray
    x_ref: np.ndarray

    def __post_init__(self) -> None:
        Q = np.array(self.Q, dtype=float)
        R = np.array(self.R, dtype=float)
        x_ref = np.array(self.x_ref, dtype=float).ravel()
        if Q.shape != (x_ref.size, x_ref.size):
            raise ValueError("Q must be n x n with n = len(x_ref)")
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("R must be square")
        for name, value in (("Q", Q), ("R", R), ("x_ref", x_ref)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} contains non-finite entries")
        if not np.allclose(Q, Q.T, atol=1e-10):
            raise ValueError("Q must be symmetric")
        if not np.allclose(R, R.T, atol=1e-10):
            raise ValueError("R must be symmetric")
        if np.linalg.eigvalsh(Q).min() < -1e-9:
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(R).min() <= 0.0:
            raise ValueError("R must be positive definite")
        for name, value in (("Q", Q), ("R", R), ("x_ref", x_ref)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class BarrierTerm:
    """One barrier shaped on the scalar z = sel_x . x + sel_u . u + offset.

    LOG_RANGE:          -(1 / t_scale) * [ln(z - lower) + ln(upper - z)]
    EXP_ONE_SIDED:      q1 * exp(q2 * z)
    EXP_LANE_CENTERING: q1 * exp(q2 * sign * (z_i - z_{i-1})), the
                        predecessor value taken from the nominal
                        trajectory (frozen per backward pass).

    t_scale is the solver's barrier sharpness, one for every term.  Terms
    are immutable (frozen fields, read-only selectors), so problems and
    their running and terminal lists may share them.
    """

    kind: BarrierKind
    sel_x: np.ndarray
    sel_u: np.ndarray
    offset: float = 0.0
    lower: float = 0.0
    upper: float = 0.0
    q1: float = 1.0
    q2: float = 1.0
    sign: float = 1.0

    def __post_init__(self) -> None:
        for name in ("sel_x", "sel_u"):
            sel = np.array(getattr(self, name), dtype=float).ravel()
            sel.flags.writeable = False
            object.__setattr__(self, name, sel)
        if self.kind is BarrierKind.LOG_RANGE:
            if not self.lower < self.upper:
                raise ValueError("LOG_RANGE requires lower < upper")
        elif self.q1 <= 0.0:
            raise ValueError("exponential barriers require q1 > 0")
        if self.kind is BarrierKind.EXP_LANE_CENTERING:
            if self.sign not in (-1.0, 1.0):
                raise ValueError("sign must be +1 or -1")
            if np.any(self.sel_u != 0.0):
                raise ValueError("lane-centering barrier selects states only")

    @functools.cached_property
    def _stack(self) -> "_Stack":
        return _Stack([self], self.sel_x.size, self.sel_u.size)

    # -- convenience constructors -------------------------------------

    @classmethod
    def log_range(cls, n: int, m: int, *, lower: float, upper: float,
                  control_index: int | None = None,
                  state_index: int | None = None) -> "BarrierTerm":
        sel_x, sel_u = _basis_selectors(n, m, state_index, control_index)
        return cls(BarrierKind.LOG_RANGE, sel_x, sel_u, lower=lower,
                   upper=upper)

    @classmethod
    def exp_one_sided(cls, n: int, m: int, *, coeff: float = 1.0,
                      offset: float = 0.0, q1: float = 1.0, q2: float = 1.0,
                      control_index: int | None = None,
                      state_index: int | None = None) -> "BarrierTerm":
        sel_x, sel_u = _basis_selectors(n, m, state_index, control_index)
        return cls(BarrierKind.EXP_ONE_SIDED, coeff * sel_x, coeff * sel_u,
                   offset=offset, q1=q1, q2=q2)

    @classmethod
    def lane_centering(cls, n: int, m: int, *, state_index: int,
                       branch_positive: bool, weight: float = 1.0,
                       rate: float = 1.0) -> "BarrierTerm":
        sel_x, sel_u = _basis_selectors(n, m, state_index, None)
        return cls(BarrierKind.EXP_LANE_CENTERING, sel_x, sel_u,
                   q1=weight, q2=rate, sign=1.0 if branch_positive else -1.0)


def _basis_selectors(n: int, m: int, state_index: int | None,
                     control_index: int | None):
    if (state_index is None) == (control_index is None):
        raise ValueError("give exactly one of state_index / control_index")
    sel_x = np.zeros(n)
    sel_u = np.zeros(m)
    if state_index is not None:
        sel_x[state_index] = 1.0
    else:
        sel_u[control_index] = 1.0
    return sel_x, sel_u


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A complete horizon problem: dynamics, costs, barriers, start state.

    `dynamics` is one time-invariant AffineDynamics applied at every
    step.  Running barriers apply at steps 0..N-1; terminal barriers act
    on x_N only.  A problem is frozen: it is validated once, when it is
    built, and derives once what every solve reads from it (the stacked
    barriers, the backward-pass stage weights, the lifted propagator).
    """

    dynamics: AffineDynamics
    horizon: int
    cost: QuadraticCost
    terminal_cost: QuadraticCost
    x0: np.ndarray
    barriers: tuple[BarrierTerm, ...] = ()
    terminal_barriers: tuple[BarrierTerm, ...] = ()

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not isinstance(self.dynamics, AffineDynamics):
            raise ValueError("dynamics must be one AffineDynamics")
        n, m = self.n, self.m
        if self.cost.x_ref.size != n or self.terminal_cost.x_ref.size != n:
            raise ValueError("cost dimension must match the state dimension")
        if self.cost.R.shape[0] != m:
            raise ValueError("R dimension must match the control dimension")
        run, term = tuple(self.barriers), tuple(self.terminal_barriers)
        for t in run + term:
            if t.sel_x.size != n or t.sel_u.size != m:
                raise ValueError("barrier selector dimensions must match the problem")
        if any(np.any(t.sel_u != 0.0) for t in term):
            raise ValueError("terminal barriers may not select controls")
        set_ = functools.partial(object.__setattr__, self)
        set_("x0", _state_vector(self.x0, n, "x0"))
        set_("barriers", run)
        set_("terminal_barriers", term)
        set_("_run", _Stack(run, n, m))
        set_("_term", _Stack(term, n, m))
        set_("_weights", _Stage(self._run, self._term, self.cost.Q,
                                self.cost.R, self.terminal_cost.Q, n, m))
        set_("_L", _lifted_propagator(self.dynamics))

    def with_start(self, x0: np.ndarray,
                   dynamics: AffineDynamics | None = None,
                   x_ref: np.ndarray | None = None) -> "ProblemSpec":
        """This problem from another start state, optionally under other
        dynamics of the same sizes and around another reference state
        (of the running and the terminal cost alike).

        Only the new parts are checked.  The copy shares everything else
        with this problem, derived data included, and rebuilds the lifted
        propagator only for new dynamics.  A planner builds its problem
        once and re-aims it every cycle this way.
        """
        out = copy.copy(self)
        set_ = functools.partial(object.__setattr__, out)
        set_("x0", _state_vector(x0, self.n, "x0"))
        if dynamics is not None:
            if not isinstance(dynamics, AffineDynamics):
                raise ValueError("dynamics must be one AffineDynamics")
            if (dynamics.n, dynamics.m) != (self.n, self.m):
                raise ValueError("dynamics must keep the state and control sizes")
            set_("dynamics", dynamics)
            set_("_L", _lifted_propagator(dynamics))
        if x_ref is not None:
            x_ref = _state_vector(x_ref, self.n, "x_ref")
            for name in ("cost", "terminal_cost"):
                cost = copy.copy(getattr(self, name))
                object.__setattr__(cost, "x_ref", x_ref)
                set_(name, cost)
        return out

    @property
    def n(self) -> int:
        return self.dynamics.n

    @property
    def m(self) -> int:
        return self.dynamics.m


def _state_vector(value, n: int, name: str) -> np.ndarray:
    """value as a read-only, finite float vector of size n."""
    out = np.array(value, dtype=float).ravel()
    if out.size != n:
        raise ValueError(f"{name} size must match the state dimension")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    out.flags.writeable = False
    return out


@dataclass
class Trajectory:
    """States (N+1, n) and controls (N, m); consistent after rollout."""

    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=float)
        self.controls = np.asarray(self.controls, dtype=float)
        if self.states.ndim != 2 or self.controls.ndim != 2:
            raise ValueError("states and controls must be 2-d arrays")
        if self.states.shape[0] != self.controls.shape[0] + 1:
            raise ValueError("states must hold exactly one more row than controls")

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]


@dataclass
class GainSchedule:
    """Feedforward k (N, m) and feedback K (N, m, n) from a backward pass.

    grad_norm carries the largest control-gradient entry seen during the
    pass.  Near active barriers the expected decrease alone is a poor
    stationarity measure (the barrier Hessian crushes the Newton step),
    so convergence tests pair it with this gradient norm.
    """

    k: np.ndarray
    K: np.ndarray
    grad_norm: float = 0.0


@dataclass
class SolverConfig:
    max_outer_iterations: int = 40
    cost_tolerance: float = 1e-4      # relative |dJ| convergence threshold
    gradient_tolerance: float = 1e-5  # relative control-gradient threshold
    regularization_init: float = 1e-6
    barrier_t_init: float = 1.0
    barrier_t_max: float = 1e4

    def __post_init__(self) -> None:
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")
        if self.cost_tolerance <= 0.0 or self.gradient_tolerance <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.regularization_init <= 0.0 or self.barrier_t_init <= 0.0:
            raise ValueError("schedules must start from a positive value")
        if self.barrier_t_max < self.barrier_t_init:
            raise ValueError("barrier_t_max must be >= barrier_t_init")

    def for_warm_start(self, iteration_cap: int) -> "SolverConfig":
        """This config for a solve warm-started from the previous plan.

        The carried-over plan is already near stationary at the final
        barrier sharpness, so the solve starts there instead of walking
        the schedule again, with iteration_cap outer iterations and a
        gradient tolerance of 1e-3.
        """
        return dataclasses.replace(
            self, barrier_t_init=self.barrier_t_max,
            max_outer_iterations=iteration_cap, gradient_tolerance=1e-3)


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    cost: float
    cost_history: list[float]
    barrier_t_scale: float
    regularization: float
    log_range_margins: list[tuple[float, float]]
    message: str = ""


@dataclass
class SolveResult:
    trajectory: Trajectory
    info: SolveInfo
    gains: GainSchedule | None = None   # of the last backward pass, if any


@dataclass
class BarrierDerivatives:
    value: float
    grad_x: np.ndarray
    grad_u: np.ndarray
    hess_xx: np.ndarray
    hess_uu: np.ndarray
    hess_ux: np.ndarray


# ---------------------------------------------------------------------------
# Stacked barrier terms.
# ---------------------------------------------------------------------------

_KIND_RANK = {BarrierKind.LOG_RANGE: 0, BarrierKind.EXP_ONE_SIDED: 1,
              BarrierKind.EXP_LANE_CENTERING: 2}


def _read_rows(O: np.ndarray, n: int) -> np.ndarray:
    """The entries of symmetric (..., nz, nz) blocks that the backward pass
    reads, flattened to (..., R) rows.

    With z = [x; 1; u] these are the (n+1)^2 value block O[:n+1, :n+1],
    then the m control rows O[n+1:, :] = [O_ux, O_u, O_uu]; the block
    O[:n+1, n+1:] only transposes the control rows and is left out.
    """
    lead, nz = O.shape[:-2], O.shape[-1]
    return np.concatenate(
        [O[..., :n + 1, :n + 1].reshape(lead + ((n + 1) ** 2,)),
         O[..., n + 1:, :].reshape(lead + ((nz - n - 1) * nz,))], axis=-1)


class _Stack:
    """Barrier terms side by side, one column of a (..., T) block each.

    Columns run log-range, then one-sided exponential, then lane
    centering, so each kind is a contiguous slice.  Row t of `sel` is
    [sel_x, 0, sel_u] in the homogeneous coordinates z = [x; 1; u] of the
    backward pass: the middle slot multiplies the constant 1, so the
    offset never enters a derivative.
    """

    def __init__(self, terms: Sequence[BarrierTerm], n: int, m: int) -> None:
        terms = sorted(terms, key=lambda t: _KIND_RANK[t.kind])
        kinds = [t.kind for t in terms]
        T = len(terms)
        self.n_log = kinds.count(BarrierKind.LOG_RANGE)
        self.n_exp = T - self.n_log
        self.lane = slice(T - kinds.count(BarrierKind.EXP_LANE_CENTERING), T)
        self.sel = np.zeros((T, n + 1 + m))
        for row, term in zip(self.sel, terms):
            row[:n] = term.sel_x
            row[n + 1:] = term.sel_u
        self.sel_x_t = self.sel[:, :n].T.copy()
        self.sel_u_t = self.sel[:, n + 1:].T.copy()
        self.offset = np.array([t.offset for t in terms])
        log, exp = terms[:self.n_log], terms[self.n_log:]
        self.lower = np.array([t.lower for t in log])
        self.upper = np.array([t.upper for t in log])
        self.q1 = np.array([t.q1 for t in exp])
        self.q2 = np.array([t.q2 for t in exp])
        self.q2_sq = self.q2 * self.q2
        self.sign = np.array([t.sign for t in terms[self.lane]])
        # control-only log ranges on one control: (index, coefficient,
        # offset, lower, upper) of the warm-start clip, in term order
        self.clips = []
        for t in log:
            nonzero = np.flatnonzero(t.sel_u)
            if nonzero.size != 1 or t.sel_x.any():
                continue
            j = int(nonzero[0])
            margin = 1e-3 * (t.upper - t.lower)
            self.clips.append((j, t.sel_u[j], t.offset, t.lower + margin,
                               t.upper - margin))


class _Stage:
    """Weights that give a step's read rows (see `_read_rows`) in one product.

    Running step i:  [g2_i, g1_i, x_i - x_ref, u_i] @ run + run_const,
    with g1, g2 the slopes of the barrier columns at step i.  Terminal
    value block:  [t2, t1, x_N - x_ref] @ final + final_const.  The
    successor part of the terminal lane-centering terms, added to step
    N-1:  [t2, t1] (lane columns only) @ succ.
    """

    def __init__(self, run: _Stack, term: _Stack, Q: np.ndarray,
                 R: np.ndarray, Qf: np.ndarray, n: int, m: int) -> None:
        nz, q = n + 1 + m, (n + 1) ** 2
        # row k spreads entry k of a gradient over z into the value row
        # and column (slot n); the Hessian of column t is sel_t sel_t'
        spread = np.zeros((nz, nz, nz))
        spread[:, n, :] += np.eye(nz)
        spread[:, :, n] += np.eye(nz)
        spread = _read_rows(spread, n)

        def hessians(sel):
            return _read_rows(sel[:, :, None] * sel[:, None, :], n)

        self.run = np.vstack([hessians(run.sel), run.sel @ spread,
                              2.0 * Q @ spread[:n], 2.0 * R @ spread[n + 1:]])
        hess = np.zeros((nz, nz))
        hess[:n, :n] = 2.0 * Q
        hess[n + 1:, n + 1:] = 2.0 * R
        self.run_const = _read_rows(hess, n)
        lane = term.lane
        signed = term.sel.copy()
        signed[lane] *= term.sign[:, None]
        self.final = np.vstack([hessians(term.sel), signed @ spread,
                                2.0 * Qf @ spread[:n]])[:, :q].copy()
        self.final_const = np.zeros(q)
        self.final_const.reshape(n + 1, n + 1)[:n, :n] = 2.0 * Qf
        self.succ = np.vstack([hessians(term.sel[lane]),
                               -signed[lane] @ spread])


def _lifted_propagator(dynamics: AffineDynamics) -> np.ndarray:
    """The backward-pass operator L of one AffineDynamics.

    With F = [[A, 0, B], [0, 1, 0]] mapping z = [x; 1; u] to [x'; 1],
    L @ vec(V) is the `_read_rows` of F' ((V + V') / 2) F for any
    (n+1, n+1) value block V, so one product per step gives every
    Q-function derivative and symmetrizes V on the way.
    """
    n, m = dynamics.n, dynamics.m
    F = np.zeros((n + 1, n + 1 + m))
    F[:n, :n] = dynamics.A
    F[:n, n + 1:] = dynamics.B
    F[n, n] = 1.0
    # outer[c, d, a, b] = F[c, a] F[d, b], the coefficient of V[c, d]
    # in (F' V F)[a, b]
    outer = F[:, None, :, None] * F[None, :, None, :]
    half = 0.5 * (outer + np.swapaxes(outer, 0, 1))
    rows = _read_rows(half.reshape(((n + 1) ** 2,) + half.shape[-2:]), n)
    return np.ascontiguousarray(rows.T)


def _running_z(stack: _Stack, X: np.ndarray,
               U: np.ndarray | None = None) -> np.ndarray:
    """Barrier arguments (..., N, T) at steps 0..N-1.

    Lane-centering columns are differenced against the previous step;
    step 0 references itself.  U = None stands for zero controls at a
    step for every row of X.
    """
    Z = X @ stack.sel_x_t if U is None else (
        X[..., :U.shape[-2], :] @ stack.sel_x_t + U @ stack.sel_u_t)
    Z = Z + stack.offset
    if stack.sign.size:
        lane = Z[..., stack.lane]
        lane[..., 1:, :] = stack.sign * (lane[..., 1:, :] - lane[..., :-1, :])
        lane[..., 0, :] = 0.0
    return Z


def _terminal_z(stack: _Stack, X: np.ndarray) -> np.ndarray:
    """Barrier arguments (..., T) at x_N: `_running_z` on x_{N-1}, x_N."""
    return _running_z(stack, X[..., -2:, :])[..., -1, :]


# ---------------------------------------------------------------------------
# Barrier profiles: value, first and second derivative w.r.t. z.
# ---------------------------------------------------------------------------

def _log_range_args(stack: _Stack, Z: np.ndarray, t_scale: float,
                    strict: bool):
    Zl = Z[..., :stack.n_log]
    a = Zl - stack.lower
    b = stack.upper - Zl
    if strict and ((a <= 0.0).any() or (b <= 0.0).any()):
        bad = ((a <= 0.0) | (b <= 0.0)).reshape(-1, stack.n_log).any(axis=0)
        col = int(np.flatnonzero(bad)[0])
        raise InfeasibleTrajectoryError(
            f"log-range argument outside ({float(stack.lower[col])}, "
            f"{float(stack.upper[col])})")
    return a, b, 1.0 / t_scale


def _exp_values(stack: _Stack, Z: np.ndarray) -> np.ndarray:
    return stack.q1 * np.exp(np.minimum(stack.q2 * Z[..., stack.n_log:],
                                        _EXP_ARG_MAX))


def _barrier_values(stack: _Stack, Z: np.ndarray, t_scale: float,
                    strict: bool) -> list[np.ndarray]:
    """Values of the log-range columns and of the exponential columns of Z.

    A log-range argument outside its open interval raises
    InfeasibleTrajectoryError when strict and gives NaN or inf otherwise.
    """
    parts = []
    if stack.n_log:
        a, b, inv_t = _log_range_args(stack, Z, t_scale, strict)
        with np.errstate(divide="ignore", invalid="ignore"):
            parts.append(-inv_t * (np.log(a) + np.log(b)))
    if stack.n_exp:
        parts.append(_exp_values(stack, Z))
    return parts


def _barrier_slopes(stack: _Stack, Z: np.ndarray, t_scale: float):
    """First and second derivatives w.r.t. z of every column of Z."""
    g1 = np.empty_like(Z)
    g2 = np.empty_like(Z)
    if stack.n_log:
        a, b, inv_t = _log_range_args(stack, Z, t_scale, strict=True)
        g1[..., :stack.n_log] = -inv_t * (1.0 / a - 1.0 / b)
        g2[..., :stack.n_log] = inv_t * (1.0 / a ** 2 + 1.0 / b ** 2)
    if stack.n_exp:
        e = _exp_values(stack, Z)
        g1[..., stack.n_log:] = stack.q2 * e
        g2[..., stack.n_log:] = stack.q2_sq * e
    return g1, g2


def barrier_value_and_derivatives(term: BarrierTerm, x: np.ndarray,
                                  u: np.ndarray, prev_x: np.ndarray | None = None,
                                  t_scale: float = 1.0) -> BarrierDerivatives:
    """Evaluate one barrier term and its chain-ruled derivatives at (x, u).

    For the lane-centering kind the predecessor state must be supplied;
    its contribution is held fixed, so the returned derivatives are those
    of this single term with the predecessor frozen.
    """
    lane = term.kind is BarrierKind.EXP_LANE_CENTERING
    if lane and prev_x is None:
        raise ValueError("lane-centering barrier needs prev_x")
    chain = term.sign if lane else 1.0
    # step 1 of a two-step trajectory whose step 0 is the predecessor
    X = np.array([prev_x if lane else x, x], dtype=float).reshape(2, -1)
    U = np.array([u, u], dtype=float).reshape(2, -1)
    stack = term._stack
    Z = _running_z(stack, X, U)[-1]
    value = sum(float(v.sum()) for v in _barrier_values(stack, Z, t_scale,
                                                        strict=True))
    g1, g2 = (float(g[0]) for g in _barrier_slopes(stack, Z, t_scale))
    gx = (g1 * chain) * term.sel_x
    gu = (g1 * chain) * term.sel_u
    hxx = g2 * np.outer(term.sel_x, term.sel_x)
    huu = g2 * np.outer(term.sel_u, term.sel_u)
    hux = g2 * np.outer(term.sel_u, term.sel_x)
    return BarrierDerivatives(float(value), gx, gu, hxx, huu, hux)


# ---------------------------------------------------------------------------
# Trajectory operations.
# ---------------------------------------------------------------------------

def _propagate(x0: np.ndarray, A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """States of x_{i+1} = A_i x_i + c_i from x0; A is one matrix or a stack.

    Each step is one product of the homogeneous map [[A_i, c_i], [0, 1]]
    with [x_i; 1], written straight into the next row.
    """
    N, n = c.shape
    T = np.zeros((N, n + 1, n + 1))
    T[:, :n, :n] = A
    T[:, :n, n] = c
    T[:, n, n] = 1.0
    out = np.empty((N + 1, n + 1))
    out[0, :n] = x0
    out[0, n] = 1.0
    for Ti, xi, xo in zip(T, out[:-1], out[1:]):
        Ti.dot(xi, out=xo)
    return out[:, :n]


def rollout(dynamics: AffineDynamics, x0: np.ndarray,
            controls: np.ndarray) -> Trajectory:
    """Propagate x0 through the dynamics under the given control sequence."""
    if not isinstance(dynamics, AffineDynamics):
        raise ValueError("dynamics must be one AffineDynamics")
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2:
        raise ValueError("controls must be an (N, m) array")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != dynamics.n:
        raise ValueError("x0 size must match the state dimension")
    if controls.shape[1] != dynamics.m:
        raise ValueError("controls width must match the control dimension")
    return Trajectory(_propagate(x0, dynamics.A,
                                 controls @ dynamics.B.T + dynamics._drift),
                      controls)


def total_cost(traj: Trajectory, spec: ProblemSpec, t_scale: float = 1.0) -> float:
    """Barrier-augmented cost of a trajectory.

    Raises InfeasibleTrajectoryError if any log-range argument is outside
    its open interval; the caller must restore feasibility.
    """
    if (traj.horizon != spec.horizon or traj.states.shape[1] != spec.n
            or traj.controls.shape[1] != spec.m):
        raise ValueError("trajectory shape does not match the problem")
    return float(_costs(traj.states, traj.controls, spec, t_scale,
                        strict=True))


def _costs(X: np.ndarray, U: np.ndarray, spec: ProblemSpec, t_scale: float,
           strict: bool = False):
    """Cost of one trajectory, or of each in a stack (..., N+1, n), (..., N, m).

    A log-range argument outside its open interval raises
    InfeasibleTrajectoryError when strict and otherwise makes that
    trajectory's cost NaN or inf.
    """
    N = spec.horizon
    run, term = spec._run, spec._term
    cost, final = spec.cost, spec.terminal_cost
    ex = X[..., :N, :] - cost.x_ref
    eN = X[..., N, :] - final.x_ref
    J = ((ex @ cost.Q) * ex).sum(axis=(-2, -1))
    J = J + ((U @ cost.R) * U).sum(axis=(-2, -1))
    J = J + ((eN @ final.Q) * eN).sum(axis=-1)
    for v in _barrier_values(run, _running_z(run, X, U), t_scale, strict):
        J = J + v.sum(axis=(-2, -1))
    for v in _barrier_values(term, _terminal_z(term, X), t_scale, strict):
        J = J + v.sum(axis=-1)
    return J


def backward_pass(traj: Trajectory, spec: ProblemSpec, regularization: float,
                  t_scale: float = 1.0) -> tuple[GainSchedule, float]:
    """Backward recursion around the nominal trajectory.

    Returns the gain schedule and the expected cost decrease of a full
    (lambda = 1) step.  Lane-centering barriers are linearized with the
    predecessor state frozen at its nominal value; both the own-step and
    the successor-step contributions of each coupled term are assigned to
    the step they differentiate, so the stage gradients match the true
    gradient of the coupled cost at the nominal point.

    The recursion runs in homogeneous coordinates z = [dx; 1; du].  Each
    step's stage derivatives form one symmetric block
    [[l_xx, l_x, l_ux'], [l_x', 0, l_u'], [l_ux, l_u, l_uu]] and the value
    function is V = [[V_xx, V_x], [V_x', .]]; the Q-function block is
    O = F' V F + stage with F = [[A, 0, B], [0, 1, 0]].  Only its read
    rows are kept (the value block [O_xx, O_x; O_x', .], then the control
    rows [O_ux, O_u, O_uu]), and they are linear in vec(V): one product
    with the problem's lifted propagator L (built once per dynamics)
    gives them, added onto the stored stage rows.  The next value block
    is then the rank-m update V = O_zz - [O_ux, O_u]' G in place, with G
    the gains of the unregularized O_uu in the value update.  k, K, the
    expected decrease and the largest control-gradient entry are read
    from the stored rows after the loop; the gains use O_uu plus
    regularization.

    Raises BackwardPassError when O_uu (plus regularization) is not
    positive definite; the caller should raise regularization and retry.
    """
    X, U = traj.states, traj.controls
    N, n, m = U.shape[0], X.shape[1], U.shape[1]
    q = (n + 1) ** 2          # value-block entries; the m control rows follow
    stage, L = spec._weights, spec._L
    run, term = spec._run, spec._term

    # Stage derivatives as read rows, vectorized over the horizon and the
    # barriers.
    g1, g2 = _barrier_slopes(run, _running_z(run, X, U), t_scale)
    if run.sign.size:
        # Own-step part: +sign * g1 at step i.  Successor part: the term
        # at i+1 differentiates to -sign * g1[i+1] w.r.t. x_i.
        lane = run.lane
        gl = run.sign * g1[:, lane]
        gl[:-1] -= run.sign * g1[1:, lane]
        g1[:, lane] = gl
        g2[:-1, lane] += g2[1:, lane]
    O = np.concatenate([g2, g1, X[:N] - spec.cost.x_ref, U], axis=1) @ stage.run
    O += stage.run_const

    # Terminal value block, as vec(V).
    t1, t2 = _barrier_slopes(term, _terminal_z(term, X), t_scale)
    v = (np.concatenate([t2, t1, X[N] - spec.terminal_cost.x_ref])
         @ stage.final + stage.final_const)
    if term.sign.size:
        # Successor-side contribution of the terminal lane-centering terms
        # lands on the last running step.
        lane = term.lane
        O[N - 1] += np.concatenate([t2[lane], t1[lane]]) @ stage.succ

    rows = list(O)
    values = list(O[:, :q])
    blocks = list(O[:, :q].reshape(N, n + 1, n + 1))
    ctrl = O[:, q:].reshape(N, m, n + 1 + m)      # [O_ux, O_u, O_uu] rows
    Ouz, Ouu = ctrl[:, :, :n + 1], ctrl[:, :, n + 1:]
    if m == 1:
        # scalar control: V = O_zz - g' g * O_uu / (O_uu + reg)^2 with g
        # the row [O_ux, O_u]; g' g is the product of its column and row
        g_rows = list(Ouz)
        g_cols = list(np.swapaxes(Ouz, -1, -2))
        for i in range(N - 1, -1, -1):
            o = rows[i]
            o += L.dot(v)
            ouu = o.item(-1)
            ouu_reg = ouu + regularization
            if ouu_reg <= 0.0:
                raise BackwardPassError(
                    f"O_uu not positive definite at step {i}")
            Vi = blocks[i]
            Vi -= g_cols[i].dot(g_rows[i]) * (ouu / ouu_reg ** 2)
            v = values[i]
        G = Ouz / -(Ouu + regularization)
    else:
        Ouzs, Ouus = list(Ouz), list(Ouu)
        eye = regularization * np.eye(m)
        for i in range(N - 1, -1, -1):
            o = rows[i]
            o += L.dot(v)
            Ouu_i = Ouus[i]
            Ouu_reg = Ouu_i + eye
            try:
                np.linalg.cholesky(Ouu_reg)
            except np.linalg.LinAlgError as exc:
                raise BackwardPassError(
                    f"O_uu not positive definite at step {i}") from exc
            W = np.linalg.solve(Ouu_reg, Ouzs[i])     # the gains are -W
            Vi = blocks[i]
            Vi -= W.T @ Ouu_i @ W
            v = values[i]
        G = -np.linalg.solve(Ouu + eye, Ouz)

    if not np.all(np.isfinite(G)):
        raise BackwardPassError("non-finite gains")
    k, Ou = G[:, :, n], Ouz[:, :, n]
    kOk = (k[:, None, :] @ Ouu @ k[:, :, None]).sum()
    expected_decrease = -(float((k * Ou).sum()) + 0.5 * float(kOk))
    return (GainSchedule(k, G[:, :, :n], float(np.abs(Ou).max())),
            expected_decrease)


def forward_pass(traj: Trajectory, gains: GainSchedule, lam: float,
                 spec: ProblemSpec) -> Trajectory:
    """Roll out u_i + lam * k_i + K_i (x - x_i) from spec.x0 around the
    nominal; from a moved start state, lam = 0 gives the nominal's own
    feedback correction.

    With u_i = uff_i + K_i x_i, where uff_i = U_i + lam k_i - K_i X_i, the
    rollout is x_{i+1} = (A + B K_i) x_i + B uff_i + drift.  States and
    controls share uff_i, so they stay consistent even when the nominal
    is far larger than the result.
    """
    X, U, N = traj.states, traj.controls, spec.horizon
    k, K = gains.k, gains.K
    dyn = spec.dynamics
    A, B, drift = dyn.A, dyn.B, dyn._drift
    uff = U + lam * k - (K @ X[:N, :, None])[:, :, 0]
    states = _propagate(spec.x0, A + B @ K, uff @ B.T + drift)
    return Trajectory(states, uff + (K @ states[:N, :, None])[:, :, 0])


def _clip_warm_start(spec: ProblemSpec, controls: np.ndarray) -> np.ndarray:
    """Pull control-only log-range scalars a minimum margin inside.

    Warm starts handed over by a receding-horizon caller often ride an
    active bound at microscopic margins.  There the barrier Hessian is
    enormous (1 / (t_scale * margin^2)), which freezes the Newton step and
    keeps a stale saturated plan pinned even after the optimal sign has
    flipped.  Enforcing a small minimum interior margin keeps the local
    curvature sane; entries deeper inside are left untouched.
    """
    controls = np.array(controls, dtype=float)
    for j, c, offset, lower, upper in spec._run.clips:
        z = c * controls[:, j] + offset
        np.clip(z, lower, upper, out=z)
        controls[:, j] = (z - offset) / c
    return controls


def _log_range_margins(traj: Trajectory, spec: ProblemSpec):
    # running log-range columns first, then terminal ones; subtracting a
    # constant is monotone, so the extreme arguments give the margins
    run, term, X = spec._run, spec._term, traj.states
    Z = _running_z(run, X, traj.controls)[:, :run.n_log]
    pairs = list(zip((Z.min(axis=0) - run.lower).tolist(),
                     (run.upper - Z.max(axis=0)).tolist()))
    if term.n_log:
        z = _terminal_z(term, X)[:term.n_log]
        pairs += zip((z - term.lower).tolist(), (term.upper - z).tolist())
    return pairs


def solve(spec: ProblemSpec, warm_start: np.ndarray | None = None,
          config: SolverConfig | None = None) -> SolveResult:
    """Run the constrained iLQR loop.

    Each outer iteration performs one backward pass, rolls the full
    (lambda = 1) step out through the feedback gains, and searches along
    that step's direction.  With affine dynamics the feedback rollout at
    step size lambda is X + lambda (X_1 - X), U + lambda (U_1 - U) up to
    rounding, so the whole backtracking schedule (LINE_SEARCH_STEPS) is
    scored in one batch and the longest step with a strict cost decrease
    is accepted.  The log-barrier sharpness multiplier grows by
    BARRIER_T_GROWTH after every accepted iteration until it hits its
    cap.  Terminates once the predicted decrease from the backward pass
    is below cost_tolerance (relative) and no further strict improvement
    is found, or at the iteration cap.  Never aborts: on a stalled search
    it returns the best trajectory so far flagged as not converged.
    """
    cfg = config or SolverConfig()
    if warm_start is None:
        controls = np.zeros((spec.horizon, spec.m))
    else:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape != (spec.horizon, spec.m):
            raise ValueError("warm start must have shape (horizon, m)")
        controls = _clip_warm_start(spec, warm_start)

    lams = LINE_SEARCH_STEPS[:, None, None]
    t_scale = min(cfg.barrier_t_init, cfg.barrier_t_max)
    reg = cfg.regularization_init
    traj = rollout(spec.dynamics, spec.x0, controls)
    J = float(_costs(traj.states, controls, spec, t_scale, strict=True))
    history = [J]
    converged = False
    iterations = 0
    gains = None
    message = "iteration cap reached"

    for _ in range(cfg.max_outer_iterations):
        iterations += 1
        while True:
            try:
                gains, exp_dec = backward_pass(traj, spec, reg, t_scale)
                break
            except BackwardPassError:
                reg *= REG_GROWTH
                if reg > REG_MAX:
                    message = "backward pass failed at regularization cap"
                    return _finish(traj, spec, J, history, t_scale, reg,
                                   iterations, False, message, gains)
        # Near-stationary iterates still try a single full step: on a
        # quadratic model that polishes the last digits, and if it fails
        # to strictly decrease the cost we declare convergence.  Both the
        # predicted decrease and the control gradient must be small: with
        # an active barrier the Hessian blows up, so the Newton decrement
        # alone can look tiny while the gradient is still large.
        scale = max(1.0, abs(J))
        stationary = (exp_dec <= cfg.cost_tolerance * scale
                      and gains.grad_norm <= cfg.gradient_tolerance * scale)
        # The feedback rollout is affine in the step size, so the candidate
        # at lambda is X + lambda (X_1 - X); the full step is kept exactly
        X, U = traj.states, traj.controls
        full = forward_pass(traj, gains, 1.0, spec)
        steps = lams[:1] if stationary else lams
        Xs = X + steps * (full.states - X)
        Us = U + steps * (full.controls - U)
        Xs[0], Us[0] = full.states, full.controls
        costs = _costs(Xs, Us, spec, t_scale)
        # NaN and infeasible (NaN or inf) candidates fail this test; the
        # steps descend, so the first hit is the longest
        better = np.flatnonzero(costs < J)
        accepted = better.size > 0

        if stationary and not accepted:
            converged = True
            message = "stationary"
            break

        if accepted:
            best = better[0]
            J_cand = float(costs[best])
            dJ = J - J_cand
            traj = Trajectory(Xs[best], Us[best])
            J = J_cand
            history.append(J)
            reg = max(reg / REG_GROWTH, cfg.regularization_init)
            # a sub-tolerance step only counts as convergence when the
            # iterate was already near-stationary; damped steps far from
            # stationarity can produce tiny decreases without being done
            if stationary and dJ <= cfg.cost_tolerance * scale:
                converged = True
                message = "cost decrease below tolerance"
                break
            if t_scale < cfg.barrier_t_max:
                t_scale = min(t_scale * BARRIER_T_GROWTH, cfg.barrier_t_max)
                J = float(_costs(traj.states, traj.controls, spec, t_scale,
                                 strict=True))
        else:
            reg *= REG_GROWTH
            if reg > REG_MAX:
                message = "line search stalled at regularization cap"
                break

    return _finish(traj, spec, J, history, t_scale, reg, iterations,
                   converged, message, gains)


def _finish(traj, spec, J, history, t_scale, reg, iterations, converged,
            message, gains) -> SolveResult:
    info = SolveInfo(
        converged=converged,
        iterations=iterations,
        cost=J,
        cost_history=history,
        barrier_t_scale=t_scale,
        regularization=reg,
        log_range_margins=_log_range_margins(traj, spec),
        message=message,
    )
    return SolveResult(traj, info, gains)
