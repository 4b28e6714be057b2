"""Constrained iterative LQR for affine discrete-time systems.

Minimizes, over a finite horizon N,

    sum_{i=0}^{N-1} [ (x_i - x_r)' Q (x_i - x_r) + u_i' R u_i + barriers(x_i, u_i) ]
        + (x_N - x_r)' Q_f (x_N - x_r) + terminal barriers(x_N)

subject to x_{i+1} = A x_i + B u_i + C w.

Inequality constraints enter the cost through barrier terms shaped on a
linear functional of (x, u): a two-sided logarithmic barrier for hard
ranges, one-sided exponentials for soft bounds, and for lane centering
an exponential q1 exp(q2 (z_i - z_{i-1})) of the functional's change
between steps, whose direction is the sign of its selector.  The log-barrier
sharpness is raised along an interior-point style schedule across outer
iterations, so converged solutions stay strictly inside their ranges.
"""
from __future__ import annotations

import contextlib
import enum
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import check_fields, ranged

# Exponent guard for the one-sided barriers; keeps deep violations finite
# so the line search can still rank candidate trajectories.
_EXP_ARG_MAX = 45.0

# Largest lifted-map entry (growth over the horizon) of an open loop that
# the Newton system is condensed on directly; see _Lift.
_OPEN_LOOP_GROWTH_MAX = 1e3

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
    """The Newton system plus regularization was not positive definite."""


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

    # C @ w of finite C and w can only overflow; "drift" reports that
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self) -> None:
        A = _finite(np.array(self.A, dtype=float), "A")
        B = _finite(np.array(self.B, dtype=float), "B")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError("B must have the same row count as A")
        if (self.C is None) != (self.w is None):
            raise ValueError("C and w must be supplied together")
        C, w, drift = None, None, np.zeros(A.shape[0])
        if self.C is not None:
            C = _finite(np.array(self.C, dtype=float), "C")
            w = _finite(np.array(self.w, dtype=float).ravel(), "w")
            if C.shape != (A.shape[0], w.size):
                raise ValueError("C must be n x len(w)")
            drift = _finite(C @ w, "drift")
        for name, value in (("A", A), ("B", B), ("C", C), ("w", w),
                            ("_drift", drift)):
            if value is not None:
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @np.errstate(over="ignore", invalid="ignore")
    def with_drift(self, w: np.ndarray) -> "AffineDynamics":
        """These dynamics, A, B and C shared, under another disturbance."""
        w = _finite(np.array(w, dtype=float).ravel(), "w")
        if self.C is None or w.shape != self.w.shape:
            raise ValueError("w must keep its size")
        drift = _finite(self.C @ w, "drift")
        w.flags.writeable = drift.flags.writeable = False
        return _replaced(self, w=w, _drift=drift)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


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
            _finite(value, name)
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
    EXP_LANE_CENTERING: q1 * exp(q2 * (z_i - z_{i-1})), a function of
                        both steps' states (its predecessor is frozen
                        only in barrier_value_and_derivatives); the
                        selector's sign sets the direction it rewards.

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

    def __post_init__(self) -> None:
        for name in ("sel_x", "sel_u"):
            sel = _finite(np.array(getattr(self, name), dtype=float).ravel(),
                          name)
            sel.flags.writeable = False
            object.__setattr__(self, name, sel)
        for name in ("offset", "lower", "upper", "q1", "q2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.kind is BarrierKind.LOG_RANGE:
            if not self.lower < self.upper:
                raise ValueError("LOG_RANGE requires lower < upper")
        elif self.q1 <= 0.0:
            raise ValueError("exponential barriers require q1 > 0")
        if (self.kind is BarrierKind.EXP_LANE_CENTERING
                and np.any(self.sel_u != 0.0)):
            raise ValueError("lane-centering barrier selects states only")

    @functools.cached_property
    def _probe(self) -> "_Columns":
        """This term as the one column of a one-step problem: running at
        step 0, or, for lane centering, terminal at step 1 after step 0."""
        lane = self.kind is BarrierKind.EXP_LANE_CENTERING
        run, term = ((), (self,)) if lane else ((self,), ())
        return _Columns(run, term, 1, self.sel_x.size, self.sel_u.size)

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
        """The positive branch rewards a falling x[state_index], the
        negative one a rising x[state_index]."""
        sel_x, sel_u = _basis_selectors(n, m, state_index, None)
        sel_x[state_index] = 1.0 if branch_positive else -1.0
        return cls(BarrierKind.EXP_LANE_CENTERING, sel_x, sel_u,
                   q1=weight, q2=rate)


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
    built, and derives once what every solve reads from it (its barrier
    columns, and the lifted map of the dynamics with what it gives the
    Newton system).
    """

    dynamics: AffineDynamics
    horizon: int = ranged("count")
    cost: QuadraticCost
    terminal_cost: QuadraticCost
    x0: np.ndarray
    barriers: tuple[BarrierTerm, ...] = ()
    terminal_barriers: tuple[BarrierTerm, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self)
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
        set_("_columns", _Columns(run, term, self.horizon, n, m))
        set_("_w_ref", _reference_row(self))
        set_("_lift", _Lift(self))

    def with_start(self, x0: np.ndarray,
                   dynamics: AffineDynamics | None = None,
                   x_ref: np.ndarray | None = None) -> "ProblemSpec":
        """This problem from another start state, optionally under other
        dynamics of the same sizes and around another reference state
        (of the running and the terminal cost alike).

        Only the new parts are checked.  The copy shares everything else
        with this problem, derived data included, and re-derives the lifted
        map only for dynamics with another A or B (a new disturbance alone
        keeps it).  A planner builds its problem once and re-aims it every
        cycle this way.
        """
        out = _replaced(self, x0=_state_vector(x0, self.n, "x0"))
        set_ = functools.partial(object.__setattr__, out)
        if dynamics is not None:
            if not isinstance(dynamics, AffineDynamics):
                raise ValueError("dynamics must be one AffineDynamics")
            if (dynamics.n, dynamics.m) != (self.n, self.m):
                raise ValueError("dynamics must keep the state and control sizes")
            set_("dynamics", dynamics)
            if not (np.array_equal(dynamics.A, self.dynamics.A)
                    and np.array_equal(dynamics.B, self.dynamics.B)):
                set_("_lift", _Lift(out))
        if x_ref is not None:
            x_ref = _state_vector(x_ref, self.n, "x_ref")
            for name in ("cost", "terminal_cost"):
                set_(name, _replaced(getattr(self, name), x_ref=x_ref))
            set_("_w_ref", _reference_row(out))
        return out

    @property
    def n(self) -> int:
        return self.dynamics.n

    @property
    def m(self) -> int:
        return self.dynamics.m


def _reference_row(spec: ProblemSpec) -> np.ndarray:
    """[vec X, vec U] of the costs' reference: x_ref at steps 0..N-1, the
    terminal cost's at step N, zero controls."""
    N, m = spec.horizon, spec.m
    return np.concatenate([np.tile(spec.cost.x_ref, N),
                           spec.terminal_cost.x_ref, np.zeros(N * m)])


def _replaced(obj, **fields):
    """A copy of frozen obj with some fields replaced, unchecked; cheaper
    than copy.copy, which walks the pickle protocol."""
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__, **fields)
    return out


def _state_vector(value, n: int, name: str) -> np.ndarray:
    """value as a read-only, finite float vector of size n."""
    out = np.array(value, dtype=float).ravel()
    if out.size != n:
        raise ValueError(f"{name} size must match the state dimension")
    _finite(out, name)
    out.flags.writeable = False
    return out


def _finite(value: np.ndarray, name: str) -> np.ndarray:
    """value, after a check that every entry is finite."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} contains non-finite entries")
    return value


@dataclass(frozen=True)
class Trajectory:
    """States (N+1, n) and controls (N, m); consistent after rollout.
    Frozen, holding read-only copies: the caller's arrays stay writable,
    and writing into them leaves the trajectory as it was."""

    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self) -> None:
        for name in ("states", "controls"):
            value = np.array(getattr(self, name), dtype=float)
            if value.ndim != 2:
                raise ValueError("states and controls must be 2-d arrays")
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.states.shape[0] != self.controls.shape[0] + 1:
            raise ValueError("states must hold exactly one more row than controls")

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]


@dataclass(frozen=True)
class SolverConfig:
    max_outer_iterations: int = ranged("count", 40)
    cost_tolerance: float = ranged("positive", 1e-4)  # relative decrease
    gradient_tolerance: float = ranged("positive", 1e-5)  # relative gradient
    regularization_init: float = ranged("positive", 1e-6)
    barrier_t_init: float = ranged("positive", 1.0)
    barrier_t_max: float = ranged("positive", 1e4)

    def __post_init__(self) -> None:
        # stores an int and floats, so configs that compare equal solve alike
        check_fields(self)
        if self.barrier_t_max < self.barrier_t_init:
            raise ValueError("barrier_t_max must be >= barrier_t_init")


# The budget of a solve warm-started from the previous plan: a real-time
# iteration (Diehl, Bock & Schloeder, SIAM J. Control Optim. 2005).  The
# carried-over plan is already near stationary at the final barrier
# sharpness, so the solve starts there (re-walking the schedule would hand
# a bound-riding control an enormous soft-barrier gradient) and takes at
# most one Newton step, none from a plan stationary at gradient tol 1e-3.
WARM_CONFIG = SolverConfig(barrier_t_init=SolverConfig.barrier_t_max,
                           max_outer_iterations=1, gradient_tolerance=1e-3)


@dataclass(frozen=True)
class SolveInfo:
    """How a solve ended; cost and log_range_margins are the returned
    trajectory's.  Each cost_history entry is scored at its own iteration's
    sharpness, so under the sharpness schedule the history may rise; at a
    fixed sharpness it does not increase."""

    converged: bool
    iterations: int
    cost: float
    cost_history: tuple[float, ...]
    barrier_t_scale: float
    regularization: float
    log_range_margins: tuple[tuple[float, float], ...]
    message: str = ""


@dataclass(frozen=True)
class SolveResult:
    trajectory: Trajectory
    info: SolveInfo
    gains: np.ndarray | None = None     # S of backward_pass (see solve)


@dataclass
class BarrierDerivatives:
    value: float
    grad_x: np.ndarray
    grad_u: np.ndarray
    hess_xx: np.ndarray
    hess_uu: np.ndarray
    hess_ux: np.ndarray


# ---------------------------------------------------------------------------
# Barrier columns.
# ---------------------------------------------------------------------------

class _Columns:
    """The barrier columns of a horizon-N problem, the one reader of their
    layout: every running term at every step, step by step, then the
    terminal terms, stably sorted by kind in BarrierKind's order, so the
    n_log log-range columns lead, n_run_log running ones per step, then
    the terminal ones.  w @ M + offset holds the arguments of w = [vec X,
    vec U], a lane-centering column holding the selector at its step and
    its negative at the step before; the kind table holds the log-range
    bounds and the exponential weights.  The methods read arguments Z
    (..., columns), one trajectory's or a stack's."""

    def __init__(self, run: Sequence[BarrierTerm], term: Sequence[BarrierTerm],
                 N: int, n: int, m: int) -> None:
        rank = list(BarrierKind)
        columns = [(i, t) for i in range(N) for t in run] + [(N, t) for t in term]
        columns.sort(key=lambda c: rank.index(c[1].kind))
        nx = (N + 1) * n
        M, offset = np.zeros((nx + N * m, len(columns))), np.zeros(len(columns))
        for c, (i, t) in enumerate(columns):
            if t.kind is BarrierKind.EXP_LANE_CENTERING:
                if i:                       # step 0 has no predecessor
                    M[i * n:(i + 1) * n, c] = t.sel_x
                    M[(i - 1) * n:i * n, c] = -t.sel_x
                continue
            M[i * n:(i + 1) * n, c] = t.sel_x
            if i < N:                       # terminal terms select no controls
                M[nx + i * m:nx + (i + 1) * m, c] = t.sel_u
            offset[c] = t.offset
        self.M, self.offset = M, offset
        self.n_log = sum(t.kind is BarrierKind.LOG_RANGE for _, t in columns)
        self.n_run_log = [t.kind for t in run].count(BarrierKind.LOG_RANGE)
        self.N = N
        log, exp = columns[:self.n_log], columns[self.n_log:]
        self.lower = np.array([t.lower for _, t in log])
        self.upper = np.array([t.upper for _, t in log])
        self.q1 = np.array([t.q1 for _, t in exp])
        self.q2 = np.array([t.q2 for _, t in exp])
        self.q2_sq = self.q2 * self.q2

    def arguments(self, w: np.ndarray) -> np.ndarray:
        """The barrier arguments of w, or of each row of a stack."""
        return w @ self.M + self.offset

    def _log_range(self, Z: np.ndarray, t_scale: float, strict: bool):
        Zl = Z[..., :self.n_log]
        a = Zl - self.lower
        b = self.upper - Zl
        # fmin skips NaN arguments, which count as no violation
        if strict and np.fmin.reduce(np.fmin(a, b), axis=None) <= 0.0:
            bad = ((a <= 0.0) | (b <= 0.0)).reshape(-1, self.n_log).any(axis=0)
            col = int(np.flatnonzero(bad)[0])
            raise InfeasibleTrajectoryError(
                f"log-range argument outside ({float(self.lower[col])}, "
                f"{float(self.upper[col])})")
        return a, b, 1.0 / t_scale

    def _exp(self, Z: np.ndarray) -> np.ndarray:
        return self.q1 * np.exp(np.minimum(self.q2 * Z[..., self.n_log:],
                                           _EXP_ARG_MAX))

    def cost(self, Z: np.ndarray, t_scale: float, strict: bool = False):
        """The log-range columns' values plus the exponential columns',
        summed over columns.  A log-range argument outside its open interval
        raises InfeasibleTrajectoryError when strict, else gives NaN or inf."""
        J = 0.0
        if self.n_log:
            a, b, inv_t = self._log_range(Z, t_scale, strict)
            with (contextlib.nullcontext() if strict else
                  np.errstate(divide="ignore", invalid="ignore")):
                J = (-inv_t * (np.log(a) + np.log(b))).sum(axis=-1)
        if self.q1.size:
            J = J + self._exp(Z).sum(axis=-1)
        return J

    def slopes(self, Z: np.ndarray, t_scale: float):
        """First and second derivatives w.r.t. z of every column of Z."""
        g1 = np.empty_like(Z)
        g2 = np.empty_like(Z)
        if self.n_log:
            a, b, inv_t = self._log_range(Z, t_scale, strict=True)
            g1[..., :self.n_log] = -inv_t * (1.0 / a - 1.0 / b)
            g2[..., :self.n_log] = inv_t * (1.0 / a ** 2 + 1.0 / b ** 2)
        if self.q1.size:
            # past the exponent cap the value is flat: zero slopes there
            e = self._exp(Z) * (self.q2 * Z[..., self.n_log:] < _EXP_ARG_MAX)
            g1[..., self.n_log:] = self.q2 * e
            g2[..., self.n_log:] = self.q2_sq * e
        return g1, g2

    def margins(self, Z: np.ndarray):
        """(lower, upper) margin of each log-range term in one trajectory's
        arguments Z: each running term's smallest over its steps, then each
        terminal term's."""
        N, r, lo, hi = self.N, self.n_run_log, self.lower, self.upper
        Zr, z = Z[:N * r].reshape(N, r), Z[N * r:self.n_log]
        pairs = zip((Zr.min(axis=0) - lo[:r]).tolist(),
                    (hi[:r] - Zr.max(axis=0)).tolist())
        return (*pairs, *zip((z - lo[N * r:]).tolist(),
                             (hi[N * r:] - z).tolist()))


@functools.lru_cache(maxsize=None)
def _toeplitz_index(N: int, n: int, m: int) -> np.ndarray:
    """Where each entry of the lifted map sits in [0, 1, vec P], P the
    (n, 2^j >= N+1, m+n) blocks A^k [B, I]: x_i's rows hold A^(i-1-j) B
    under u_j (j < i) and A^i under x0, U's rows the identity."""
    W = (1 << int(N).bit_length()) * (m + n)
    i, r = np.divmod(np.arange((N + 1) * n), n)
    j, c = np.divmod(np.arange(N * m), m)
    k = i[:, None] - 1 - j
    under_u = np.where(k >= 0, 2 + r[:, None] * W + k * (m + n) + c, 0)
    under_x0 = 2 + r[:, None] * W + i[:, None] * (m + n) + m + np.arange(n)
    controls = np.eye(N * m, N * m + n, dtype=np.intp)
    index = np.vstack([np.hstack([under_u, under_x0]), controls])
    index.flags.writeable = False
    return index


def _lifted_map(A: np.ndarray, B: np.ndarray, N: int,
                K: np.ndarray | None = None) -> np.ndarray:
    """The lifted map F of x' = A x + B u over N steps with u_i = K x_i
    + v_i (u = v without K): a change [vec dv; dx0] moves a trajectory's
    w = [vec X, vec U] by F [vec dv; dx0].  The blocks (A + B K)^k [B, I]
    come by doubling (blocks L .. 2L-1 are (A + B K)^L times blocks
    0 .. L-1), and one gather lays them out."""
    n, m = B.shape
    W = m + n
    src = np.empty(2 + n * (1 << int(N).bit_length()) * W)
    src[:2] = 0.0, 1.0
    P = src[2:].reshape(n, -1)
    P[:, :W] = np.hstack([B, np.eye(n)])
    power = A if K is None else A + B @ K
    done = W
    while done < P.shape[1]:
        np.matmul(power, P[:, :done], out=P[:, done:2 * done])
        power = power @ power
        done *= 2
    F = src[_toeplitz_index(N, n, m)]
    if K is not None:
        F[(N + 1) * n:] += (K @ F[:N * n].reshape(N, n, -1)).reshape(N * m, -1)
    return F


def _lqr_gain(A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray,
              N: int) -> np.ndarray:
    """The first gain of the LQR problem (A, B, Q, R) over 2^k >= N steps,
    by the structure-preserving doubling algorithm for the discrete
    Riccati equation: iterate k holds the 2^k-step value matrix H."""
    eye = np.eye(A.shape[0])
    G, H, power = B @ np.linalg.solve(R, B.T), Q, A
    span = 1
    while span < N:
        W = np.linalg.inv(eye + G @ H)
        PW = power @ W
        G = G + PW @ G @ power.T
        H = H + power.T @ H @ W @ power
        power = PW @ power
        span *= 2
    BH = B.T @ H
    return -np.linalg.solve(R + BH @ B, BH @ A)


class _Lift:
    """What every Newton system of a problem under one A and B shares.

    With affine dynamics the states are an affine function of the
    controls, so the iLQR step is the Newton step on the N m controls
    (condensing: Jerez, Kerrigan & Constantinides, CDC 2011).  It is taken
    in the parameters v of the closed loop u_i = K x_i + v_i, which changes
    neither the Newton step nor a stage gradient.  K is zero (v = U) unless
    the open loop grows past _OPEN_LOOP_GROWTH_MAX over the horizon, and
    the problem's LQR gain beyond (pre-stabilization: Rossiter,
    Kouvaritakis & Rice, Automatica 1998): the condensed Hessian loses its
    stage Schur complements to rounding as the growth squared, so on 400
    random problems the open loop's start-state gains were within 3e-9 of
    Riccati's below 1e3, 1e-5 off by 1e4 and useless from 1e7, while the
    LQR gain costs about 0.1 ms more for every new A and B.

    F0 is the open loop's lifted map, which rolls out a start, and F the
    lifted map under K: Fv is its v block, Fu its control rows and
    Tv = Fu_v' Fu_v (I when K = 0), so reg Tv is reg I on the controls.
    Sb = M' F for the barrier columns' M (ProblemSpec._columns): its row j is
    barrier column j as a function of [vec v; x0], and SbT its v part
    transposed, so w + Fv v has w's barrier arguments plus v SbT.  H0 is
    the quadratic cost's Hessian in [vec v; x0], v rows only, and
    Gq (w - w_ref) its gradient in v at w.
    A model that overflows gives a non-finite lift, which every direction
    reports.  memo holds the last result solved under this lift with its
    key, and a repeat of that solve returns the result itself (see solve).
    """

    @np.errstate(all="ignore")
    def __init__(self, spec: "ProblemSpec") -> None:
        N, n, m = spec.horizon, spec.n, spec.m
        A, B = spec.dynamics.A, spec.dynamics.B
        F = self.F0 = _lifted_map(A, B, N)
        self.K = np.zeros((m, n))
        if np.abs(F).max() > _OPEN_LOOP_GROWTH_MAX:
            try:
                self.K = _lqr_gain(A, B, spec.cost.Q, spec.cost.R, N)
            except np.linalg.LinAlgError:
                self.K = np.full((m, n), np.nan)
            F = _lifted_map(A, B, N, self.K)
        self.F = F
        nx, Nm = (N + 1) * n, N * m
        self.Fv, self.Fu = F[:, :Nm], F[nx:]
        self.Tv = (self.Fu[:, :Nm].T @ self.Fu[:, :Nm] if self.K.any()
                   else np.eye(Nm))
        self.Sb = spec._columns.M.T @ F
        self.SbT = np.ascontiguousarray(self.Sb[:, :Nm].T)
        WF = np.empty_like(F)
        np.matmul(2.0 * spec.cost.Q, F[:N * n].reshape(N, n, -1),
                  out=WF[:N * n].reshape(N, n, -1))
        np.matmul(2.0 * spec.terminal_cost.Q, F[N * n:nx], out=WF[N * n:nx])
        np.matmul(2.0 * spec.cost.R, F[nx:].reshape(N, m, -1),
                  out=WF[nx:].reshape(N, m, -1))
        self.H0 = self.Fv.T @ WF
        self.Gq = WF[:, :Nm].T
        self.memo = None


def _lifted_w(F: np.ndarray, v: np.ndarray, x0: np.ndarray,
              drift: np.ndarray) -> np.ndarray:
    """w = F [vec v; x0] for the lifted map F of some (A, B, K) (see
    _lifted_map), plus the response to the constant drift c: x_i gains
    the sum over k < i of Phi^k c, Phi = A + B K, and u_i K times it."""
    (N, m), n = v.shape, x0.size
    nx = (N + 1) * n
    y = F[:, N * m:] @ drift
    w = F @ np.concatenate([v.ravel(), x0])
    w[n:nx] += np.cumsum(y[:N * n].reshape(N, n), axis=0).ravel()
    w[nx + m:] += np.cumsum(y[nx:-m].reshape(N - 1, m), axis=0).ravel()
    return w


def _flat(traj: Trajectory) -> np.ndarray:
    return np.concatenate((traj.states.ravel(), traj.controls.ravel()))


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
    # a one-step trajectory whose step 0 is the predecessor (see _probe)
    cols = term._probe
    w = np.concatenate([np.asarray(v, dtype=float).ravel()
                        for v in (prev_x if lane else x, x, u)])
    Z = cols.arguments(w)
    value = cols.cost(Z, t_scale, strict=True)
    g1, g2 = (float(g[0]) for g in cols.slopes(Z, t_scale))
    gx = g1 * term.sel_x
    gu = g1 * term.sel_u
    hxx = g2 * np.outer(term.sel_x, term.sel_x)
    huu = g2 * np.outer(term.sel_u, term.sel_u)
    hux = g2 * np.outer(term.sel_u, term.sel_x)
    return BarrierDerivatives(float(value), gx, gu, hxx, huu, hux)


# ---------------------------------------------------------------------------
# Trajectory operations.
# ---------------------------------------------------------------------------

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
    N, n = controls.shape[0], dynamics.n
    w = _lifted_w(_lifted_map(dynamics.A, dynamics.B, N), controls, x0,
                  dynamics._drift)
    return Trajectory(w[:(N + 1) * n].reshape(N + 1, n), controls)


def total_cost(traj: Trajectory, spec: ProblemSpec, t_scale: float = 1.0) -> float:
    """Barrier-augmented cost of a trajectory.

    Raises InfeasibleTrajectoryError if any log-range argument is outside
    its open interval; the caller must restore feasibility.
    """
    if (traj.horizon != spec.horizon or traj.states.shape[1] != spec.n
            or traj.controls.shape[1] != spec.m):
        raise ValueError("trajectory shape does not match the problem")
    w, cols = _flat(traj), spec._columns
    return float(_quadratic(w, spec)
                 + cols.cost(cols.arguments(w), t_scale, strict=True))


def _quadratic(w: np.ndarray, spec: ProblemSpec):
    """The quadratic part of the cost of one trajectory w = [vec X, vec U],
    or of each row of a stack."""
    N, n, lead = spec.horizon, spec.n, w.shape[:-1]
    X = w[..., :(N + 1) * n].reshape(lead + (N + 1, n))
    U = w[..., (N + 1) * n:].reshape(lead + (N, spec.m))
    cost, final = spec.cost, spec.terminal_cost
    ex = X[..., :N, :] - cost.x_ref
    eN = X[..., N, :] - final.x_ref
    J = ((ex @ cost.Q) * ex).sum(axis=(-2, -1))
    J = J + ((U @ cost.R) * U).sum(axis=(-2, -1))
    return J + ((eN @ final.Q) * eN).sum(axis=-1)


def _newton_system(v: np.ndarray, Z: np.ndarray, q: np.ndarray,
                   spec: ProblemSpec, t_scale: float):
    """The Newton system (H, g) at the iterate w + Fv v, v in the lift's
    parameters (see _Lift), with barrier arguments Z (the columns of
    ProblemSpec._columns) and q the quadratic cost's gradient in v at w:
    H, the v rows of the Hessian in [vec v; x0], is the quadratic cost's
    fixed part plus the barrier columns' Sb' diag(g2) Sb, and the
    gradient g = q + H0 v + Sb' g1."""
    lift = spec._lift
    g1, g2 = spec._columns.slopes(Z, t_scale)
    return (lift.H0 + (lift.SbT * g2) @ lift.Sb,
            q + lift.H0[:, :spec.horizon * spec.m] @ v + lift.SbT @ g1)


def backward_pass(H: np.ndarray, g: np.ndarray, spec: ProblemSpec,
                  regularization: float):
    """One iteration's search direction from the Newton system (H, g) of
    _newton_system, which it leaves as it is.  It returns (step, S,
    grad_norm, expected_decrease): the search direction dv, the stepped
    controls' first-order change S (N, m, n) per unit change of the start
    state, the largest stage gradient and the expected cost decrease of a
    full (lambda = 1) step.  Near active barriers that decrease alone is a
    poor stationarity measure (the barrier Hessian crushes the Newton
    step), so convergence tests pair it with grad_norm.

    With affine dynamics the iLQR step is the Newton step on the controls
    (condensing, see _Lift): (H + reg Tv) dv = -g, and reg Tv is reg I on
    the controls.  H + reg Tv is factored last stage first, the
    elimination order of the Riccati recursion, so L_ii y_i (L y = g) is
    stage i's control gradient with every later stage eliminated,
    Riccati's Q_u.  The same system gives the plan's change with the start
    state.

    Raises BackwardPassError when H + reg Tv is not positive definite; the
    caller should raise regularization and retry.
    """
    N, m, lift = spec.horizon, spec.m, spec._lift
    Nm = N * m
    # last stage first; Y = (H + reg Tv)^-1 [g, dg/dx0]
    H_rev = H[::-1, Nm - 1::-1] + regularization * lift.Tv[::-1, ::-1]
    try:
        L = np.linalg.cholesky(H_rev)
        Y = np.linalg.solve(H_rev, np.column_stack([g[::-1], H[::-1, Nm:]]))
    except np.linalg.LinAlgError as exc:
        raise BackwardPassError("Newton system not positive definite") from exc
    y = (L.T @ Y[:, 0]).reshape(N, m)
    blocks = L.reshape(N, m, N, m).diagonal(0, 0, 2)    # (m, m, N)
    stage_grad = np.einsum("abi,ib->ia", blocks, y)
    dv = -Y[::-1, 0]
    S = lift.Fu[:, :Nm] @ -Y[::-1, 1:] + lift.Fu[:, Nm:]
    if not (np.isfinite(dv).all() and np.isfinite(S).all()):
        raise BackwardPassError("non-finite step")
    dU = lift.Fu[:, :Nm] @ dv
    expected_decrease = 0.5 * float((y * y).sum() + regularization * dU @ dU)
    return (dv, S.reshape(N, m, -1), float(np.abs(stage_grad).max()),
            expected_decrease)


def solve(spec: ProblemSpec, warm_start: np.ndarray | None = None,
          config: SolverConfig | None = None) -> SolveResult:
    """Run the constrained iLQR loop in the lift's parameters (see _Lift).

    The start (zero controls or the warm start, as given) is rolled out
    and scored exactly; outside a log range it raises
    InfeasibleTrajectoryError, and then the solve never aborts.  Iterates
    are base + Fv v, the base being the start, or with a gain K the free
    response (v = 0): a growing open loop can put the start too far off to
    step from to the last digit.  Each outer iteration takes one search
    direction dv (backward_pass) from the iterate's Newton system, formed
    once per iterate (_newton_system); if its expected decrease and largest
    stage gradient are within cost_tolerance and gradient_tolerance
    (relative to max(1, |J|)) the iterate is stationary and the solve has
    converged.  Otherwise it scores v + lambda dv for the whole
    backtracking schedule (LINE_SEARCH_STEPS) in one batch, unformed:
    arguments Zb + v SbT and quadratic costs Jqb + q'v + v'H0 v / 2 from
    the base's.  The longest step with a strict decrease is accepted,
    unless it rounds back to v (then no step is a decrease), and
    the barrier sharpness grows by BARRIER_T_GROWTH up to its cap.  A
    failed pass or search grows the regularization by REG_GROWTH; the
    solve stops at a stationary iterate, above REG_MAX or at the cap.  The
    plan is formed once, at the end; info.cost and the margins are its
    own.  If rounding cost it the condensed score's decrease, the start is
    returned as "plan not below the start": not converged, its score the
    whole cost_history, gains only from a pass taken there.

    A result is immutable (frozen, its arrays read-only) and formed from
    a fresh rollout, so it shares no memory with the warm start.  A solve
    is deterministic, so a call that repeats the last solve under the same
    lift (a problem and the with_start copies that keep it, such as a
    planner's re-posed problem) returns that same result without
    recomputing.  The lift stands for A, B, the horizon, the costs' Q and
    R and the barriers; the memo's key is the rest of what a solve reads,
    bit for bit: x0, the drift, the reference, the start controls, and the
    config (its fields are stored as int and floats, so equal configs
    solve alike).  A solve that raises stores nothing.
    """
    cfg = config or SolverConfig()
    controls = (np.zeros((spec.horizon, spec.m)) if warm_start is None
                else np.asarray(warm_start, dtype=float))
    if controls.shape != (spec.horizon, spec.m):
        raise ValueError("warm start must have shape (horizon, m)")
    _finite(controls, "warm start")
    key = (cfg, spec.x0.tobytes(), spec.dynamics._drift.tobytes(),
           spec._w_ref.tobytes(), controls.tobytes())
    memo = spec._lift.memo
    if memo is not None and memo[0] == key:
        return memo[1]

    lams, reg = LINE_SEARCH_STEPS[:, None], cfg.regularization_init
    t_scale = cfg.barrier_t_init
    N, n, lift, cols = spec.horizon, spec.n, spec._lift, spec._columns
    nx, H0 = (N + 1) * n, lift.H0[:, :N * spec.m]
    drift = spec.dynamics._drift
    start = _lifted_w(lift.F0, controls, spec.x0, drift)
    Z0, Jq0 = Z, Jq = cols.arguments(start), _quadratic(start, spec)
    base, v0, Zb, Jqb = start, np.zeros(N * spec.m), Z0, Jq0
    if lift.K.any():
        base = _lifted_w(lift.F, np.zeros_like(controls), spec.x0, drift)
        v0 = (controls - start[:nx - n].reshape(N, n) @ lift.K.T).ravel()
        Zb, Jqb = cols.arguments(base), _quadratic(base, spec)
    q, v = lift.Gq @ (base - spec._w_ref), v0
    J = float(Jq + cols.cost(Z, t_scale, strict=True))
    history, gains, system = [J], None, None
    message = "iteration cap reached"

    for iterations in range(1, cfg.max_outer_iterations + 1):
        # formed once per iterate: a retry there changes only reg
        system = system or _newton_system(v, Z, q, spec, t_scale)
        try:
            step, gains, grad_norm, exp_dec = backward_pass(*system, spec, reg)
        except BackwardPassError:
            failure = "backward pass failed at regularization cap"
        else:
            at_start = v is v0
            # With an active barrier the Hessian blows up and the Newton
            # decrement alone can look tiny, so the control gradient must
            # be small too.
            scale = max(1.0, abs(J))
            if (exp_dec <= cfg.cost_tolerance * scale
                    and grad_norm <= cfg.gradient_tolerance * scale):
                message = "stationary"
                break
            vs = v + lams * step
            # barrier arguments and quadratic cost of base + Fv vs
            Zs = Zb + vs @ lift.SbT
            Jqs = Jqb + vs @ q + 0.5 * ((vs @ H0) * vs).sum(axis=-1)
            costs = Jqs + cols.cost(Zs, t_scale)
            # NaN and infeasible (NaN or inf) candidates fail this test;
            # the steps descend, so the first hit is the longest.  A hit
            # that rounds back to v is no decrease, and every shorter step
            # rounds back too
            better = np.flatnonzero(costs < J)
            if better.size and vs[k := better[0]].tobytes() != v.tobytes():
                v, Z, Jq, J = vs[k], Zs[k], Jqs[k], float(costs[k])
                history.append(J)
                system = None
                reg = max(reg / REG_GROWTH, cfg.regularization_init)
                if t_scale < cfg.barrier_t_max:
                    t_scale = min(t_scale * BARRIER_T_GROWTH, cfg.barrier_t_max)
                    J = float(Jq + cols.cost(Z, t_scale, strict=True))
                continue
            failure = "line search stalled at regularization cap"
        reg *= REG_GROWTH
        if reg > REG_MAX:
            message = failure
            break

    # the plan, formed once and scored exactly, or the start (see above)
    w, Z, J = start, Z0, (history[0] if t_scale == cfg.barrier_t_init
                          else float(Jq0 + cols.cost(Z0, t_scale)))
    if v is not v0:
        plan = base + lift.Fv @ v
        Zp = cols.arguments(plan)
        Jp = float(_quadratic(plan, spec) + cols.cost(Zp, t_scale))
        if Jp < J:
            w, Z, J = plan, Zp, Jp
        else:
            history = history[:1]
            message = "plan not below the start"
            gains = gains if at_start else None
    info = SolveInfo(
        converged=message == "stationary", iterations=iterations, cost=J,
        cost_history=tuple(history), barrier_t_scale=t_scale,
        regularization=reg, log_range_margins=cols.margins(Z),
        message=message)
    if gains is not None:
        gains.flags.writeable = False
    traj = Trajectory(w[:nx].reshape(N + 1, n), w[nx:].reshape(N, spec.m))
    lift.memo = (key, SolveResult(traj, info, gains))
    return lift.memo[1]
