"""Independent reference implementations used to pin expected test values.

Everything here is written straight from first principles (dynamic
programming on quadratics, central differences, exhaustive search) and
deliberately shares no code with the package under test.
"""
import bisect
import math

import numpy as np


def lqr_dp_solve(A, B, d, Q, R, Qf, x_ref, x0, N):
    """Finite-horizon LQR via dynamic programming on quadratic value functions.

    Cost: sum_{i=0}^{N-1} (x_i - x_ref)' Q (x_i - x_ref) + u_i' R u_i
          + (x_N - x_ref)' Qf (x_N - x_ref)
    Dynamics: x_{i+1} = A x_i + B u_i + d.

    Value functions are kept as V(x) = x' P x + 2 q' x + c so the affine
    drift and nonzero reference are handled exactly.  Returns the optimal
    state and control sequences.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    d = np.asarray(d, float).ravel()
    Q = np.asarray(Q, float)
    R = np.asarray(R, float)
    Qf = np.asarray(Qf, float)
    x_ref = np.asarray(x_ref, float).ravel()

    n = A.shape[0]
    # terminal: (x - r)' Qf (x - r) = x'Qf x - 2 (Qf r)' x + r'Qf r
    P = Qf.copy()
    q = -Qf @ x_ref
    c = float(x_ref @ Qf @ x_ref)

    Ks = [None] * N
    ks = [None] * N
    for _ in range(N - 1, -1, -1):
        i = _
        # stage cost in expanded form
        # min_u  x'Qx - 2(Qr)'x + r'Qr + u'Ru + V(Ax + Bu + d)
        H = R + B.T @ P @ B
        Hinv = np.linalg.inv(H)
        # gradient in u: 2 R u + 2 B'P(Ax + Bu + d) + 2 B'q = 0
        Kx = Hinv @ (B.T @ P @ A)
        k0 = Hinv @ (B.T @ (P @ d + q))
        Ks[i] = Kx
        ks[i] = k0
        Acl = A - B @ Kx
        dcl = d - B @ k0
        P_new = Q + Kx.T @ R @ Kx + Acl.T @ P @ Acl
        q_new = (-Q @ x_ref + Kx.T @ R @ k0
                 + Acl.T @ (P @ dcl + q))
        c_new = (c + float(x_ref @ Q @ x_ref) + float(k0 @ R @ k0)
                 + float(dcl @ P @ dcl) + 2.0 * float(q @ dcl))
        P, q, c = 0.5 * (P_new + P_new.T), q_new, c_new

    xs = np.empty((N + 1, n))
    us = np.empty((N, B.shape[1]))
    x = np.asarray(x0, float).ravel().copy()
    xs[0] = x
    for i in range(N):
        u = -Ks[i] @ x - ks[i]
        us[i] = u
        x = A @ x + B @ u + d
        xs[i + 1] = x
    return xs, us


def closed_loop_rollout(A, B, d, X, U, k, K, lam, x0):
    """Per-step rollout of u_i = U_i + lam k_i + K_i (x_i - X_i) from x0.

    x_{i+1} = A x_i + B u_i + d; returns the states and the controls.
    """
    N = len(U)
    xs = np.empty((N + 1, len(x0)))
    us = np.empty((N, len(U[0])))
    x = np.asarray(x0, float).ravel().copy()
    xs[0] = x
    for i in range(N):
        u = U[i] + lam * k[i] + K[i] @ (x - X[i])
        us[i] = u
        x = A @ x + B @ u + d
        xs[i + 1] = x
    return xs, us


def affine_step(dyn, x, u):
    """One step x' = A x + B u + C w of an AffineDynamics, from its fields."""
    return dyn.A @ x + dyn.B @ u + (0.0 if dyn.C is None else dyn.C @ dyn.w)


def lqr_dp_gains(A, B, Q, R, Qf, N):
    """Riccati feedback gains for the zero-reference, drift-free problem."""
    P = np.asarray(Qf, float).copy()
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    Q = np.asarray(Q, float)
    R = np.asarray(R, float)
    gains = [None] * N
    for i in range(N - 1, -1, -1):
        H = R + B.T @ P @ B
        Kx = np.linalg.solve(H, B.T @ P @ A)
        gains[i] = Kx
        Acl = A - B @ Kx
        P = Q + Kx.T @ R @ Kx + Acl.T @ P @ Acl
        P = 0.5 * (P + P.T)
    return gains


def central_diff_grad(f, z0, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    z0 = np.asarray(z0, float)
    g = np.zeros_like(z0)
    for j in range(z0.size):
        zp = z0.copy()
        zm = z0.copy()
        zp[j] += h
        zm[j] -= h
        g[j] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def central_diff_hess(f, z0, h=1e-4):
    """Central-difference Hessian of a scalar function of a vector."""
    z0 = np.asarray(z0, float)
    k = z0.size
    H = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            zpp = z0.copy(); zpp[a] += h; zpp[b] += h
            zpm = z0.copy(); zpm[a] += h; zpm[b] -= h
            zmp = z0.copy(); zmp[a] -= h; zmp[b] += h
            zmm = z0.copy(); zmm[a] -= h; zmm[b] -= h
            H[a, b] = (f(zpp) - f(zpm) - f(zmp) + f(zmm)) / (4.0 * h * h)
    return H


def grid_minimize(f, lo, hi, num=200001):
    """Exhaustive scalar minimization on a uniform open-interval grid."""
    span = hi - lo
    zs = lo + span * (np.arange(1, num + 1) / (num + 1))
    vals = np.array([f(z) for z in zs])
    j = int(np.argmin(vals))
    return zs[j], vals[j]


def steady_state_bicycle(m, iz, lf, lr, caf, car, v, delta):
    """Steady-state (v_lat, yaw_rate) of the linear dynamic bicycle.

    Axle forces are 2*C*alpha (two tires per axle) with small-angle slip:
        0 = 2Caf (delta - (vl + lf r)/v) + 2Car (-(vl - lr r)/v) - m v r
        0 = lf 2Caf (delta - (vl + lf r)/v) - lr 2Car (-(vl - lr r)/v)
    Solved exactly as a 2x2 linear system.
    """
    f = 2.0 * caf
    g = 2.0 * car
    M = np.array([
        [-(f + g) / v, -(f * lf - g * lr) / v - m * v],
        [-(f * lf - g * lr) / v, -(f * lf ** 2 + g * lr ** 2) / v],
    ])
    rhs = np.array([-f * delta, -lf * f * delta])
    vl, r = np.linalg.solve(M, rhs)
    return float(vl), float(r)


def understeer_yaw_rate(m, lf, lr, caf, car, v, delta):
    """Closed-form steady yaw rate v*delta/(L + K_us v^2), axle stiffnesses."""
    f = 2.0 * caf
    g = 2.0 * car
    wheelbase = lf + lr
    k_us = m * (lr * g - lf * f) / (f * g * wheelbase)
    return v * delta / (wheelbase + k_us * v * v)


def barrier_slopes(kind, z, lower=0.0, upper=0.0, q1=1.0, q2=1.0,
                   t_scale=1.0):
    """First and second derivative in z of one barrier profile.

    log_range: -(1 / t_scale) [ln(z - lower) + ln(upper - z)];
    exp_one_sided and exp_lane_centering: q1 exp(min(q2 z, 45)).
    """
    if kind == "log_range":
        a, b = z - lower, upper - z
        assert a > 0.0 and b > 0.0, "log-range argument outside its range"
        w = 1.0 / t_scale
        return -w * (1.0 / a - 1.0 / b), w * (1.0 / a ** 2 + 1.0 / b ** 2)
    e = q1 * np.exp(min(q2 * z, 45.0))
    return q2 * e, q2 * q2 * e


def barrier_arguments_reference(X, U, running, terminal):
    """Every barrier argument of one trajectory, step by step, term by term.

    running and terminal are lists of dicts with the barrier fields (kind,
    sel_x, sel_u, offset).  A running term at step i acts on
    s_x.x_i + s_u.u_i + offset; a terminal one on s_x.x_N + offset.  A
    lane-centering term acts on s_x.x_i - s_x.x_{i-1}, 0 at step 0, with
    no offset.  Returns the running arguments (N, len(running)) in
    list order and the terminal ones (len(terminal),).
    """
    X = np.asarray(X, float)
    U = np.asarray(U, float)
    N = U.shape[0]

    def z_of(term, i):
        sx = np.asarray(term["sel_x"], float)
        if term["kind"] == "exp_lane_centering":
            if i == 0:
                return 0.0
            return float(sx @ X[i]) - float(sx @ X[i - 1])
        z = float(sx @ X[i])
        if i < N:
            z += float(np.asarray(term["sel_u"], float) @ U[i])
        return z + term["offset"]

    run = np.array([[z_of(t, i) for t in running] for i in range(N)])
    return run.reshape(N, len(running)), np.array([z_of(t, N)
                                                   for t in terminal])


def riccati_backward_reference(X, U, As, Bs, Q, R, x_ref, Qf, xf_ref,
                               running, terminal, reg, t_scale=1.0):
    """Per-step backward pass of the barrier-augmented iLQR, term by term.

    X (N+1, n) and U (N, m) are the nominal; As[i], Bs[i] the dynamics of
    step i.  running and terminal are lists of dicts with the barrier
    fields (kind, sel_x, sel_u, offset, lower, upper, q1, q2); each term
    acts on one step, so lane-centering terms, which couple two steps,
    are refused (newton_step_reference takes them).  The gains use
    Q_uu + reg I; the value update uses the unregularized Q_uu:
    V_x = Q_x - K' Q_uu k, V_xx = Q_xx - K' Q_uu K.  Returns k (N, m),
    K (N, m, n), the expected decrease of a full step and the largest
    |Q_u| entry.
    """
    assert all(t["kind"] != "exp_lane_centering"
               for t in list(running) + list(terminal)), "one-step terms only"
    X = np.asarray(X, float)
    U = np.asarray(U, float)
    N, m = U.shape
    n = X.shape[1]

    def z_of(term, i, x_rows):
        z = float(term["sel_x"] @ x_rows[i] + term["offset"])
        return z + float(term["sel_u"] @ U[i]) if i < N else z

    def slopes(term, z):
        return barrier_slopes(term["kind"], z, term["lower"], term["upper"],
                              term["q1"], term["q2"], t_scale)

    lx, lu, lxx, luu, lux = [], [], [], [], []
    for i in range(N):
        gx = 2.0 * Q @ (X[i] - x_ref)
        gu = 2.0 * R @ U[i]
        hxx = 2.0 * Q.copy()
        huu = 2.0 * R.copy()
        hux = np.zeros((m, n))
        for term in running:
            sx, su = term["sel_x"], term["sel_u"]
            g1, g2 = slopes(term, z_of(term, i, X))
            gx = gx + g1 * sx
            gu = gu + g1 * su
            hxx = hxx + g2 * np.outer(sx, sx)
            huu = huu + g2 * np.outer(su, su)
            hux = hux + g2 * np.outer(su, sx)
        lx.append(gx)
        lu.append(gu)
        lxx.append(hxx)
        luu.append(huu)
        lux.append(hux)

    Vx = 2.0 * Qf @ (X[N] - xf_ref)
    Vxx = 2.0 * np.asarray(Qf, float).copy()
    for term in terminal:
        g1, g2 = slopes(term, z_of(term, N, X))
        Vx = Vx + g1 * term["sel_x"]
        Vxx = Vxx + g2 * np.outer(term["sel_x"], term["sel_x"])

    k = np.empty((N, m))
    K = np.empty((N, m, n))
    decrease = 0.0
    grad_norm = 0.0
    for i in range(N - 1, -1, -1):
        A, B = As[i], Bs[i]
        Qx = lx[i] + A.T @ Vx
        Qu = lu[i] + B.T @ Vx
        Qxx = lxx[i] + A.T @ Vxx @ A
        Quu = luu[i] + B.T @ Vxx @ B
        Qux = lux[i] + B.T @ Vxx @ A
        H = Quu + reg * np.eye(m)
        assert np.linalg.eigvalsh(H).min() > 0.0, "Q_uu + reg not positive"
        k[i] = -np.linalg.solve(H, Qu)
        K[i] = -np.linalg.solve(H, Qux)
        Vx = Qx - K[i].T @ Quu @ k[i]
        Vxx = Qxx - K[i].T @ Quu @ K[i]
        Vxx = 0.5 * (Vxx + Vxx.T)
        decrease -= float(k[i] @ Qu + 0.5 * k[i] @ Quu @ k[i])
        grad_norm = max(grad_norm, float(np.max(np.abs(Qu))))
    return k, K, decrease, grad_norm


def newton_system_reference(X, U, A, B, Q, R, x_ref, Qf, xf_ref, running,
                            terminal, t_scale=1.0):
    """Dense Newton system of the barrier-augmented cost in the controls.

    X (N+1, n) and U (N, m) are the nominal, a trajectory of
    x' = A x + B u + d; running and terminal are barrier dicts as for
    riccati_backward_reference, lane-centering terms included.  The
    states' response to a unit impulse in each control and each start
    state entry is rolled out step by step, and every barrier argument's
    response is barrier_arguments_reference of it, offsets zeroed.  From
    these the cost's gradient g (N m,) and Hessian H (N m, N m) in vec U,
    and dg/dx0 (N m, n), are summed term by term and returned.
    """
    X = np.asarray(X, float)
    U = np.asarray(U, float)
    N, m = U.shape
    n = X.shape[1]
    Nm = N * m

    def response(x0, controls):
        xs = np.empty((N + 1, n))
        xs[0] = x0
        for i in range(N):
            xs[i + 1] = A @ xs[i] + B @ controls[i]
        return xs

    # unit impulses in vec U, then in x0: (states, controls) each
    impulses = []
    for j in range(Nm + n):
        e = np.zeros(Nm + n)
        e[j] = 1.0
        us = e[:Nm].reshape(N, m)
        impulses.append((response(e[Nm:], us), us))
    Sx = np.stack([xs for xs, _ in impulses], axis=-1)     # (N+1, n, Nm+n)
    Su = np.stack([us for _, us in impulses], axis=-1)     # (N, m, Nm+n)

    def arguments(xs, us, terms=(running, terminal)):
        run, term = barrier_arguments_reference(xs, us, *terms)
        return np.concatenate([run.ravel(), term])

    linear = tuple([dict(t, offset=0.0) for t in ts]
                   for ts in (running, terminal))
    terms = [t for _ in range(N) for t in running] + list(terminal)
    z = arguments(X, U)
    Jz = np.column_stack([arguments(xs, us, linear)
                          for xs, us in impulses])          # (terms, Nm+n)

    grad = np.zeros(Nm + n)
    hess = np.zeros((Nm + n, Nm + n))
    for i in range(N + 1):
        W, ref = (Qf, xf_ref) if i == N else (Q, x_ref)
        grad += 2.0 * Sx[i].T @ W @ (X[i] - ref)
        hess += 2.0 * Sx[i].T @ W @ Sx[i]
    for i in range(N):
        grad += 2.0 * Su[i].T @ R @ U[i]
        hess += 2.0 * Su[i].T @ R @ Su[i]
    for t, zc, row in zip(terms, z, Jz):
        g1, g2 = barrier_slopes(t["kind"], zc, t["lower"], t["upper"],
                                t["q1"], t["q2"], t_scale)
        grad += g1 * row
        hess += g2 * np.outer(row, row)

    return grad[:Nm], hess[:Nm, :Nm], hess[:Nm, Nm:]


def newton_step_reference(X, U, A, B, Q, R, x_ref, Qf, xf_ref, running,
                          terminal, reg, t_scale=1.0):
    """Dense Newton step of newton_system_reference's system.

    Returns the step -(H + reg I)^-1 g (N, m), the start-state gains
    -(H + reg I)^-1 dg/dx0 (N, m, n), the model decrease
    -(g.step + step' H step / 2) with the unregularized H, and the largest
    entry of a stage gradient g_i - H_i,>i (H_>i,>i + reg I)^-1 g_>i,
    stage i's gradient with every later stage eliminated.
    """
    N, m = np.shape(U)
    n, Nm = np.shape(X)[1], N * m
    g, H, G = newton_system_reference(X, U, A, B, Q, R, x_ref, Qf, xf_ref,
                                      running, terminal, t_scale)
    Hr = H + reg * np.eye(Nm)
    step = -np.linalg.solve(Hr, g)
    gains = -np.linalg.solve(Hr, G)
    decrease = -float(g @ step + 0.5 * step @ H @ step)
    grad_norm = 0.0
    for i in range(N):
        own, later = slice(i * m, (i + 1) * m), slice((i + 1) * m, Nm)
        gi = g[own] - H[own, later] @ np.linalg.solve(Hr[later, later],
                                                     g[later])
        grad_norm = max(grad_norm, float(np.max(np.abs(gi))))
    return step.reshape(N, m), gains.reshape(N, m, n), decrease, grad_norm


# ---------------------------------------------------------------------------
# Plain per-element forms of simulator and lane-map hot paths.  The package
# runs vectorized or unrolled versions of these; the tests require results
# equal to the bit, because the closed-loop CSV is pinned byte for byte.
# ---------------------------------------------------------------------------

def bin_means_per_bin(points, bin_width):
    """Points pooled into x bins of bin_width, each bin replaced by its mean.

    Stable-sorts by bin, splits into groups and takes each group's mean;
    returns the (k, 2) array of bin means in increasing bin order.
    """
    pooled = np.asarray(points, float).reshape(-1, 2)
    if pooled.shape[0] == 0:
        return pooled
    bins = np.floor(pooled[:, 0] / bin_width).astype(int)
    order = np.argsort(bins, kind="stable")
    groups = np.split(pooled[order],
                      np.flatnonzero(np.diff(bins[order])) + 1)
    return np.array([g.mean(axis=0) for g in groups])


def rk4_bicycle_step(y0, steer, accel_cmd, brake_cmd, dt, kappa_of, p,
                     accel_gain, brake_gain, v_slip_min):
    """One RK4 step of the road-frame dynamic bicycle, stage by stage.

    y0 is (s, delta, theta, v, yaw_rate, v_lat); kappa_of(s) gives road
    curvature and p the vehicle parameters (m, c_alpha_f, c_alpha_r, l_f,
    l_r, i_z).  Returns the seven floats of the next state, a last, with
    negative speed clamped to 0 and no off-track check.
    """
    accel = (accel_gain * min(max(accel_cmd, -1.0), 1.0)
             - brake_gain * min(max(brake_cmd, 0.0), 1.0))

    def f(y):
        s, delta, theta, v, yaw_rate, v_lat = y
        kappa = kappa_of(s)
        if v >= v_slip_min:
            alpha_f = steer - math.atan((v_lat + p.l_f * yaw_rate) / v)
            alpha_r = -math.atan((v_lat - p.l_r * yaw_rate) / v)
            fyf = 2.0 * p.c_alpha_f * alpha_f
            fyr = 2.0 * p.c_alpha_r * alpha_r
            cos_steer = math.cos(steer)
            dv_lat = (fyf * cos_steer + fyr) / p.m - v * yaw_rate
            dyaw = (p.l_f * fyf * cos_steer - p.l_r * fyr) / p.i_z
        else:
            dv_lat = -v_lat * 10.0
            dyaw = -yaw_rate * 10.0
        denom = 1.0 - kappa * delta
        if abs(denom) < 1e-6:
            denom = math.copysign(1e-6, denom)
        ct, st = math.cos(theta), math.sin(theta)
        ds = (v * ct - v_lat * st) / denom
        ddelta = v * st + v_lat * ct
        dtheta = yaw_rate - kappa * ds
        dv = accel if v > 0.0 or accel > 0.0 else 0.0
        return ds, ddelta, dtheta, dv, dyaw, dv_lat

    y0 = tuple(y0)
    k1 = f(y0)
    k2 = f(tuple(a + 0.5 * dt * b for a, b in zip(y0, k1)))
    k3 = f(tuple(a + 0.5 * dt * b for a, b in zip(y0, k2)))
    k4 = f(tuple(a + dt * b for a, b in zip(y0, k3)))
    y = [a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
         for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
    if y[3] < 0.0:
        y[3] = 0.0
    return tuple(y) + (accel,)


def csv_per_cell(header, columns, events):
    """CSV text with every numeric cell formatted on its own as .10g."""
    lines = [",".join(header)]
    for i in range(len(events)):
        parts = [format(col[i], ".10g") for col in columns]
        parts.append(events[i])
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def _piece(segments, closed, s):
    # segment index and offset of s along a chain of (length, k0, k1)
    breaks = [0.0]
    for length, _, _ in segments:
        breaks.append(breaks[-1] + length)
    total = breaks[-1]
    s = s % total if closed else min(max(s, 0.0), total)
    i = min(bisect.bisect_right(breaks, s) - 1, len(segments) - 1)
    return i, s - breaks[i], breaks


def curvature_scalar(segments, closed, s):
    """kappa(s) of a piecewise-linear curvature chain, one s at a time."""
    i, ds, breaks = _piece(segments, closed, s)
    _, k0, k1 = segments[i]
    return k0 + (k1 - k0) * (ds / (breaks[i + 1] - breaks[i]))


def heading_scalar(segments, closed, s):
    """Tangent angle at s, the exact integral of kappa from s = 0."""
    i, ds, breaks = _piece(segments, closed, s)
    psi = [0.0]
    for length, k0, k1 in segments:
        psi.append(psi[-1] + 0.5 * (k0 + k1) * length)
    turns = math.floor(s / breaks[-1]) if closed else 0.0
    _, k0, k1 = segments[i]
    slope = (k1 - k0) / (breaks[i + 1] - breaks[i])
    return psi[i] + k0 * ds + 0.5 * slope * ds * ds + turns * psi[-1]


def centerline_end(heading, breaks, nodes=20):
    """End point (x, y) of a planar curve that starts at the origin.

    heading maps an array of arc lengths to tangent angles.  Each piece
    [breaks[i], breaks[i+1]] is integrated with a nodes-point
    Gauss-Legendre rule, near exact where the heading is a smooth
    polynomial on each piece.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    x = y = 0.0
    for s0, s1 in zip(breaks[:-1], breaks[1:]):
        psi = np.asarray(heading(s0 + (s1 - s0) * t), float)
        x += float(w @ np.cos(psi)) * (s1 - s0)
        y += float(w @ np.sin(psi)) * (s1 - s0)
    return x, y
