"""Independent reference implementations used to pin expected test values.

Every function here works on plain dense numpy arrays and is transcribed
directly from the published update rules and closed forms, sharing no code
with the package under test.  Tests compare package outputs against these
oracles; the oracles themselves are kept deliberately naive (explicit loops and
dense algebra) so that agreement between the two routes is meaningful.

The exceptions read the package's operators, problems and steps.
:func:`densify` builds the dense matrix of an operator from its parts.  The
others check a guarantee that no run reports.  :func:`region_scan_cells` is
the region scan as one plain ``fb_step`` loop per cell
(:func:`plain_fb_run`), the route that the block scan must reproduce
bitwise.  :func:`relaxed_iterates`
is the plain ``fb_step`` loop that ``run_fb`` is pinned to bitwise, and
:func:`fejer_check` measures its pairs in the preconditioner's metric
(``fb.m_norm``).  :func:`perturbation_envelope` reads the schedule of an
accelerated result, and :func:`lagrangian` the loss and coupling of a
problem; its conjugate comes from the prox spec's public data
(:func:`conjugate_value`), since the package evaluates no ``h*``.  The
graph oracles return their difference matrix as a scipy CSR array built
from COO triplets, the arrays the package's direct CSR build must
reproduce.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp


# ---------------------------------------------------------------------------
# dense linear-algebra helpers


def spectral_norm_gram(a):
    """Largest singular value via eigendecomposition of the Gram matrix."""
    a = np.asarray(a, dtype=float)
    gram = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    return float(np.sqrt(max(np.linalg.eigvalsh(gram).max(), 0.0)))


def densify(op):
    """The dense matrix of a package operator, built from its parts: the
    stored array or CSR matrix, the identity, zeros, or a column stack of
    its blocks' matrices."""
    from pdsplit import linops

    if isinstance(op, linops.DenseOp):
        return op.array.copy()
    if isinstance(op, linops.SparseOp):
        return op.matrix.toarray()
    if isinstance(op, linops.IdentityOp):
        return np.eye(op.shape[0])
    if isinstance(op, linops.ZeroOp):
        return np.zeros(op.shape)
    if isinstance(op, linops.HStackOp):
        return np.hstack([densify(b) for b in op.blocks])
    raise TypeError(f"no dense matrix for {type(op).__name__}")


def column_by_column(vector_map, block):
    """Image of a 2-d block under a map of 1-d vectors, one column at a time.

    Each column is copied out contiguous before the map sees it, so the
    result is what the map gives on each column as a standalone vector.
    """
    block = np.asarray(block, dtype=float)
    columns = []
    for j in range(block.shape[1]):
        columns.append(np.asarray(vector_map(block[:, j].copy()), dtype=float))
    return np.column_stack(columns)


def central_diff_grad(fun, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return g


def soft_threshold(z, t):
    """Coordinatewise shrinkage toward zero by ``t``."""
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def metric_matrix(k_mat, kappa, tau, sigma):
    """Dense preconditioner of the continuum at position ``kappa``."""
    k_mat = np.asarray(k_mat, dtype=float)
    l, p = k_mat.shape
    c = kappa * k_mat
    kkt = k_mat @ k_mat.T
    top = np.hstack([np.eye(p) / tau, c.T])
    bottom = np.hstack([c, np.eye(l) / sigma + tau * (kappa**2 * kkt - kkt)])
    return np.vstack([top, bottom])


def lower_triangular_change(k_mat, tau):
    """Block matrix whose transpose maps the pair into half-update variables."""
    k_mat = np.asarray(k_mat, dtype=float)
    l, p = k_mat.shape
    out = np.eye(p + l)
    out[p:, :p] = -tau * k_mat
    return out


# ---------------------------------------------------------------------------
# classical saddle steps (literature forms, one step each)


def loris_verhoeven_step(grad, k_mat, prox, tau, sigma, x, y):
    """Half-update form: gradient step first, dual prox, primal correction."""
    g = grad(x)
    x_half = x - tau * (g + k_mat.T @ y)
    y_new = prox(y + sigma * (k_mat @ x_half), sigma)
    x_new = x_half - tau * (k_mat.T @ (y_new - y))
    return x_new, y_new


def condat_vu_step(grad, k_mat, prox, tau, sigma, x, y):
    """Primal step first, dual prox at the extrapolated primal point."""
    g = grad(x)
    x_new = x - tau * (g + k_mat.T @ y)
    y_new = prox(y + sigma * (k_mat @ (2.0 * x_new - x)), sigma)
    return x_new, y_new


def dual_condat_vu_step(grad, k_mat, prox, tau, sigma, x, y):
    """Dual prox first, primal step at the extrapolated dual point."""
    y_new = prox(y + sigma * (k_mat @ x), sigma)
    x_new = x - tau * grad(x) - tau * (k_mat.T @ (2.0 * y_new - y))
    return x_new, y_new


def transformed_half_update_step(grad, k_mat, prox, tau, sigma, u, v):
    """One step of the primal-first iteration in change-of-variables form.

    Works on the transformed pair ``(u, v) = (x - tau K' y, y)``; the
    underlying pair is recovered as ``x = u + tau K' v``.  Conjugating the
    operators through the block change of variables turns the primal-first
    scheme into a block-diagonal-metric iteration on ``(u, v)``, whose
    resolvent evaluates in closed form below.
    """
    g = grad(u + tau * (k_mat.T @ v))
    v_new = prox(v + sigma * (k_mat @ (u - tau * (k_mat.T @ v) - 2.0 * tau * g)), sigma)
    u_new = u - tau * (g + k_mat.T @ v_new)
    return u_new, v_new


def fbf_inertial_step(grad, k_mat, prox, tau, x, y, x_prev, y_prev, a1, a2):
    """One inertial forward-backward-forward update, dual prox scaled by tau."""
    g = grad(x)
    x_mid = x - tau * (g + k_mat.T @ y) + a1 * (x - x_prev)
    y_mid = prox(y + tau * (k_mat @ x) + a1 * (y - y_prev), tau)
    y_new = y_mid + tau * (k_mat @ (x_mid - x)) + a2 * (y - y_prev)
    x_new = x_mid - tau * (k_mat.T @ (y_mid - y)) + a2 * (x - x_prev)
    return x_new, y_new


# ---------------------------------------------------------------------------
# momentum recursion (dense transcription of the nine update lines)


def accel_run_dense(grad, k_mat, prox, a_mat, b_mat, taus, sigmas, x0, y0, n_steps):
    """Run the accelerated recursion with explicit operator matrices.

    ``taus`` and ``sigmas`` are callables of the 1-based step index; the
    averaging weight is ``2 / (k + 1)`` and the extrapolation factor is
    ``(k - 1) / k``.  Returns the averaged pair, the final resolvent pair,
    and the list of per-step resolvent pairs.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    xt = x.copy()
    yt = y.copy()
    xt_prev = x.copy()
    yt_prev = y.copy()
    tilde_pairs = []
    for k in range(1, n_steps + 1):
        rho = averaging_weight(k)
        theta = extrapolation_factor(k)
        tau = taus(k)
        sigma = sigmas(k)
        tau_prev = taus(k - 1) if k > 1 else 0.0
        u_bar = k_mat @ xt - theta * (a_mat @ (xt - xt_prev))
        v_bar = k_mat.T @ yt + theta * (
            (tau_prev / tau) * ((k_mat + b_mat).T @ (yt - yt_prev))
            - b_mat.T @ (yt - yt_prev)
        )
        x_md = (1.0 - rho) * x + rho * xt
        g = grad(x_md)
        u_new = u_bar - tau * ((k_mat + a_mat) @ (g + v_bar))
        yt_new = prox(yt + sigma * u_new, sigma)
        v_new = k_mat.T @ yt_new + b_mat.T @ (yt_new - yt) - theta * (
            b_mat.T @ (yt - yt_prev)
        )
        xt_new = xt - tau * (g + v_new)
        x = (1.0 - rho) * x + rho * xt_new
        y = (1.0 - rho) * y + rho * yt_new
        xt_prev, yt_prev = xt, yt
        xt, yt = xt_new, yt_new
        tilde_pairs.append((xt.copy(), yt.copy()))
    return x, y, xt, yt, tilde_pairs


def gradient_extrapolation_run_dense(grad, k_mat, prox, taus, sigmas, x0, y0, n_steps):
    """Run the primal-extrapolation acceleration in its original six lines.

    This is the special case with the full dual-side operator and no
    primal-side correction, transcribed independently of the general
    recursion above so the two can be cross-checked.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    xt = x.copy()
    yt = y.copy()
    xt_prev = x.copy()
    for k in range(1, n_steps + 1):
        rho = averaging_weight(k)
        theta = extrapolation_factor(k)
        tau = taus(k)
        sigma = sigmas(k)
        x_bar = xt + theta * (xt - xt_prev)
        x_md = (1.0 - rho) * x + rho * xt
        yt_new = prox(yt + sigma * (k_mat @ x_bar), sigma)
        xt_new = xt - tau * (grad(x_md) + k_mat.T @ yt_new)
        x = (1.0 - rho) * x + rho * xt_new
        y = (1.0 - rho) * y + rho * yt_new
        xt_prev = xt
        xt, yt = xt_new, yt_new
    return x, y, xt, yt


# ---------------------------------------------------------------------------
# schedule closed forms and feasibility conditions


def averaging_weight(k):
    return 2.0 / (k + 1.0)


def extrapolation_factor(k):
    return (k - 1.0) / k


def bounded_constants(a, b, c, d, q, r):
    """Curvature and coupling constants of the bounded schedule."""
    p_const = 1.0 / (1.0 - q)
    q_const = max(a**2 / ((1.0 - q) * r), (2.0 * c * d + b**2 / q) / (1.0 - r))
    return p_const, q_const


def unbounded_constants(a, b, c, d, q, r):
    """Same constants with the unit floor of the horizon-driven schedule."""
    p_const, q_const = bounded_constants(a, b, c, d, q, r)
    return p_const, max(q_const, 1.0)


def bounded_tau(k, p_const, q_const, l_f, k_norm, omega_x, omega_y):
    return k / (2.0 * p_const * l_f + k * q_const * k_norm * omega_y / omega_x)


def bounded_sigma(k_norm, omega_x, omega_y):
    return omega_y / (k_norm * omega_x)


def unbounded_tau(k, p_const, q_const, l_f, k_norm, horizon):
    return k / (2.0 * p_const * l_f + q_const * horizon * k_norm)


def unbounded_sigma(k, k_norm, horizon):
    return k / (horizon * k_norm)


def bounded_gap(k, p_const, q_const, l_f, k_norm, omega_x, omega_y):
    """Closed-form duality-gap guarantee of the bounded schedule at step k."""
    return (
        4.0 * p_const * omega_x**2 * l_f / (k * (k - 1.0))
        + 2.0 * omega_x * omega_y * (q_const + 1.0) * k_norm / k
    )


def unbounded_energy(p_const, q_const, l_f, k_norm, horizon, q, r):
    """Perturbation-energy envelope (up to the squared-radius factor)."""
    rate = 4.0 * p_const * l_f / horizon**2 + 2.0 * q_const * k_norm / horizon
    return rate * (2.0 + q / (1.0 - q) + (r + 0.5) / (0.5 - r))


def momentum_conditions(tau_k, sigma_k, rho_k, l_f, k_norm, a, b, c, d, q, r):
    """Slacks of the two per-step feasibility inequalities (>= 0 is pass)."""
    lhs1 = (1.0 - q) / tau_k - l_f * rho_k - (a * k_norm) ** 2 * sigma_k / r
    lhs2 = (1.0 - r) / sigma_k - tau_k * (
        2.0 * c * d * k_norm**2 + (b * k_norm) ** 2 / q
    )
    return lhs1, lhs2


def stoc_constants(q, r, s, t, a, b, c, d, floor_one):
    """Curvature and coupling constants of the stochastic schedules."""
    p_const = 1.0 / (s - q)
    q_const = max(a**2 / (r * (s - q)), (2.0 * c * d + b**2 / q) / (t - r))
    if floor_one:
        q_const = max(q_const, 1.0)
    return p_const, q_const


def stoc_bounded_tau(k, p_const, q_const, l_f, k_norm, omega_x, omega_y, chi_x, horizon):
    num = omega_x * k
    den = (
        2.0 * p_const * l_f * omega_x
        + q_const * k_norm * omega_y * (horizon - 1.0)
        + chi_x * horizon * np.sqrt(horizon - 1.0)
    )
    return num / den


def stoc_bounded_sigma(k, k_norm, omega_x, omega_y, chi_y, horizon):
    num = omega_y * k
    den = k_norm * omega_x * (horizon - 1.0) + chi_y * horizon * np.sqrt(horizon - 1.0)
    return num / den


def stoc_noise_scale(s, t, chi_x, chi_y):
    return np.sqrt(
        (2.0 - s) / (1.0 - s) * chi_x**2 + (2.0 - t) / (1.0 - t) * chi_y**2
    )


def stoc_unbounded_tau(k, p_const, q_const, l_f, k_norm, chi, r_tilde, horizon):
    den = (
        2.0 * p_const * l_f
        + q_const * k_norm * (horizon - 1.0)
        + horizon * np.sqrt(horizon - 1.0) * chi / r_tilde
    )
    return k / den


def stoc_unbounded_sigma(k, k_norm, chi, r_tilde, horizon):
    den = k_norm * (horizon - 1.0) + horizon * np.sqrt(horizon - 1.0) * chi / r_tilde
    return k / den


def stoc_conditions(tau_k, sigma_k, rho_k, l_f, k_norm, a, b, c, d, q, r, s, t):
    """Slacks of the stochastic per-step feasibility inequalities."""
    lhs1 = (s - q) / tau_k - l_f * rho_k - (a * k_norm) ** 2 * sigma_k / r
    lhs2 = (t - r) / sigma_k - tau_k * (
        2.0 * c * d * k_norm**2 + (b * k_norm) ** 2 / q
    )
    return lhs1, lhs2


def stoc_gap_c0(horizon, p_const, q_const, l_f, k_norm, omega_x, omega_y, chi_x, chi_y, r, s):
    """Closed-form expected-gap guarantee of the stochastic bounded schedule."""
    n = float(horizon)
    root = np.sqrt(n - 1.0)
    return (
        8.0 * p_const * l_f * omega_x**2 / (n * (n - 1.0))
        + 4.0 * k_norm * omega_x * omega_y * (q_const + 1.0) / n
        + (4.0 * chi_x * omega_x + 4.0 * chi_y * omega_y) / root
        + (2.0 - r) * omega_x * chi_x / (3.0 * (1.0 - r) * root)
        + (2.0 - s) * omega_y * chi_y / (3.0 * (1.0 - s) * root)
    )


def perturbation_vector(a_mat, b_mat, k_mat, tau, sigma, rho, xt_first, yt_first,
                        xt, yt, xt_prev, yt_prev):
    """Perturbation pair of an unbounded run from its resolvent history."""
    dx = xt - xt_prev
    dy = yt - yt_prev
    v_x = rho * ((xt_first - xt) / tau - b_mat.T @ dy)
    v_y = rho * (
        (yt_first - yt) / sigma
        + a_mat @ dx
        + tau * ((k_mat + a_mat) @ ((k_mat + b_mat).T @ dy))
    )
    return v_x, v_y


def perturbation_envelope(result, first, anchor):
    """Certified envelope of an unbounded accelerated run's perturbation.

    ``result`` is the run's ``AccelResult``, of which the ``schedule`` and
    ``iterations`` are read; ``first`` is the run's first resolvent pair, the
    ``(x_tilde, y_tilde)`` of its first step, and ``anchor`` a solution pair
    or a trusted approximation of one.
    Returns a dict with the bound ``v_norm_bound`` on the norm of
    :func:`perturbation_vector` at the last index, the perturbation energy
    ``eps`` and the anchor radius ``r_tilde`` measured from ``first``.
    """
    schedule = result.schedule
    k = result.iterations
    tau, sigma, rho = schedule.tau(k), schedule.sigma(k), schedule.rho(k)
    tau1, sigma1 = schedule.tau(1), schedule.sigma(1)
    ex = np.asarray(anchor[0], dtype=float) - first[0]
    ey = np.asarray(anchor[1], dtype=float) - first[1]
    r_tilde = float(np.sqrt(ex @ ex + (tau1 / sigma1) * (ey @ ey)))
    q, r = schedule.q, schedule.r
    mu = np.sqrt(1.0 / (1.0 - q))
    nu = np.sqrt(2.0 * sigma1 / (tau1 * (1.0 - 2.0 * r)))
    a, b, c, d = schedule.factors
    nk = schedule.k_norm
    v_norm_bound = (
        (rho / tau) * np.linalg.norm(ex)
        + (rho / sigma) * np.linalg.norm(ey)
        + ((rho / tau) * (mu + (tau1 / sigma1) * nu)
           + 2.0 * rho * (mu * a * nk + nu * b * nk)
           + 2.0 * tau * rho * nu * (c * nk) * (d * nk)) * r_tilde
    )
    energy = 2.0 + q / (1.0 - q) + (2.0 * r + 1.0) / (1.0 - 2.0 * r)
    eps = (rho / tau) * energy * r_tilde**2
    return {"v_norm_bound": float(v_norm_bound), "eps": float(eps), "r_tilde": r_tilde}


# ---------------------------------------------------------------------------
# saddle values and the relaxed iteration, step by step


def conjugate_value(hconj, y, tol):
    """``h*(y)`` from a prox spec's public data, ``inf`` outside its domain;
    points within ``tol`` of the domain count as in it.

    A box clip's conjugate is the indicator of ``[-lam, lam]^dim``, a group
    spec's that of its balls (:func:`group_ball_indicator`), an identity
    shift's the linear map ``<shift, y>``, and a composite's the sum of its
    parts' values on their segments.
    """
    from pdsplit import prox

    y = np.asarray(y, dtype=float)
    if isinstance(hconj, prox.Composite):
        bounds = zip(hconj.offsets[:-1], hconj.offsets[1:])
        return sum(conjugate_value(part, y[lo:hi], tol)
                   for part, (lo, hi) in zip(hconj.parts, bounds))
    if isinstance(hconj, prox.BoxClip):
        return 0.0 if all(abs(v) <= hconj.lam + tol for v in y) else np.inf
    if isinstance(hconj, prox.GroupL2Balls):
        return group_ball_indicator(y, hconj.partition.sizes, hconj.radii, tol)
    if isinstance(hconj, prox.IdentityShift):
        return float(sum(s * v for s, v in zip(hconj.shift, y)))
    raise TypeError(f"no conjugate oracle for {type(hconj).__name__}")


def lagrangian(problem, x, y, tol=1e-9):
    """Saddle value ``f(x) + <Kx, y> - h*(y)`` of a problem, with ``h*`` from
    :func:`conjugate_value`.

    Returns ``-inf`` when ``y`` is infeasible for ``h*`` (the conjugate is
    ``+inf`` there); ``tol`` absorbs the boundary rounding of prox outputs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    conj = conjugate_value(problem.hconj, y, tol)
    if not np.isfinite(conj):
        return -np.inf
    return float(problem.loss.value(x)) + float(problem.K.apply(x) @ y) - conj


def relaxed_iterates(problem, params, x0=None, y0=None):
    """Relaxed pairs of a plain ``fb_step`` loop, the start (zeros by
    default) first: what ``run_fb(problem, params, x0, y0)`` steps through,
    with the step sizes and relaxation that ``validate_params`` resolves."""
    from pdsplit import fb

    info = fb.validate_params(problem, params)
    p, l = problem.dims
    x = np.zeros(p) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(l) if y0 is None else np.array(y0, dtype=float)
    pairs = [(x, y)]
    for _ in range(params.max_iters):
        xt, yt = fb.fb_step(problem, params.kappa, info["tau"], info["sigma"], x, y)
        x = x + info["rho"] * (xt - x)
        y = y + info["rho"] * (yt - y)
        pairs.append((x, y))
    return pairs


def fejer_check(problem, params, iterates, z_star, slack_factor=1e-10):
    """Check monotone decrease of the metric distance to a fixed point.

    Each distance is ``fb.m_norm`` of an iterate pair's offset from
    ``z_star``, in the metric of the step sizes that ``validate_params``
    resolves from ``params``.  An increase up to ``slack_factor * (1 +
    initial distance)`` is allowed.  Returns a dict
    with the ``ok`` flag, ``max_increase``, ``slack``, the ``distances`` and
    ``first_violation``: the index into ``iterates`` of the first pair
    whose distance exceeds its predecessor's by more than the slack, or
    ``None`` when the sequence is monotone.
    """
    from pdsplit import fb

    info = fb.validate_params(problem, params)
    xs, ys = np.asarray(z_star[0]), np.asarray(z_star[1])
    dist = np.array([
        fb.m_norm(problem, params.kappa, info["tau"], info["sigma"], xi - xs, yi - ys)
        for xi, yi in iterates
    ])
    slack = slack_factor * (1.0 + dist[0])
    increases = np.diff(dist)
    max_increase = float(increases.max()) if increases.size else 0.0
    offending = np.nonzero(increases > slack)[0]
    return {
        "ok": max_increase <= slack,
        "max_increase": max_increase,
        "slack": slack,
        "distances": dist,
        "first_violation": int(offending[0]) + 1 if offending.size else None,
    }


# ---------------------------------------------------------------------------
# long-run scalar solvers for reference objectives


def ista_lasso(a, b, lam, n_iters=100000, x0=None, stop_step=1e-16):
    """Proximal gradient on the l1-penalized least-squares objective."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.zeros(a.shape[1]) if x0 is None else np.asarray(x0, dtype=float).copy()
    step = 1.0 / spectral_norm_gram(a) ** 2
    for _ in range(n_iters):
        x_new = soft_threshold(x - step * (a.T @ (a @ x - b)), step * lam)
        if np.linalg.norm(x_new - x) <= stop_step:
            x = x_new
            break
        x = x_new
    return x


def lasso_objective(a, b, lam, x):
    r = np.asarray(a) @ x - np.asarray(b)
    return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())


# ---------------------------------------------------------------------------
# blockwise Euclidean balls, one block at a time


def _consecutive_blocks(sizes):
    lo = 0
    for size in sizes:
        yield lo, lo + size
        lo += size


def _euclid(v):
    return float(np.sqrt(sum(float(t) * float(t) for t in v)))


def group_ball_project(v, sizes, radii):
    """Radial projection of every block onto its ball of radius ``radii[g]``."""
    out = np.array(v, dtype=float)
    for g, (lo, hi) in enumerate(_consecutive_blocks(sizes)):
        nrm = _euclid(out[lo:hi])
        if nrm > radii[g]:
            out[lo:hi] = out[lo:hi] * (radii[g] / nrm)
    return out


def group_norm_sum(u, sizes, radii):
    """Weighted sum ``sum_g radii[g] * ||u_g||`` of the block norms."""
    return sum(radii[g] * _euclid(u[lo:hi])
               for g, (lo, hi) in enumerate(_consecutive_blocks(sizes)))


def group_ball_indicator(y, sizes, radii, tol):
    """0 when every block lies within its radius plus ``tol``, else inf."""
    for g, (lo, hi) in enumerate(_consecutive_blocks(sizes)):
        if _euclid(y[lo:hi]) > radii[g] + tol:
            return np.inf
    return 0.0


def group_shrink(z, sizes, thresholds):
    """Block soft threshold: zero a block whose norm is at most its
    threshold, otherwise shorten it by the threshold."""
    out = np.array(z, dtype=float)
    for g, (lo, hi) in enumerate(_consecutive_blocks(sizes)):
        nrm = _euclid(out[lo:hi])
        if nrm <= thresholds[g]:
            out[lo:hi] = 0.0
        else:
            out[lo:hi] = out[lo:hi] * (1.0 - thresholds[g] / nrm)
    return out


# ---------------------------------------------------------------------------
# combinatorial enumerations for generators and masking


def chained_group_indices(n_groups, group_size, overlap=10):
    """Zero-based chained groups, each sharing ``overlap`` coordinates."""
    step = group_size - overlap
    return [list(range(j * step, j * step + group_size)) for j in range(n_groups)]


def chained_group_problem(seed, p, n_samples, noise_sd):
    """The least-squares data of the chained-group kinds, coordinate by
    coordinate.

    Replays the generator's draws on a Philox stream in order: the whole
    ``n_samples x p`` design, then the observation noise.  The signal is
    ``(-1)^(j+1) exp(-j/100)`` at coordinate ``j``, with numpy's ``exp`` on
    each scalar (``math.exp`` rounds some of them differently).  Returns the
    design, response and signal.
    """
    rng = np.random.Generator(np.random.Philox(int(seed)))
    a = rng.standard_normal((n_samples, p))
    x_true = np.array([(-1.0) ** (j + 1) * np.exp(-j / 100.0) for j in range(p)])
    b = a @ x_true + noise_sd * rng.standard_normal(n_samples)
    return a, b, x_true


def group_membership_coo(groups, p):
    """Group selector matrix built from COO: one row per listed index, with
    a one in that index's column, group after group."""
    cols = [int(i) for group in groups for i in group]
    return sp.csr_array((np.ones(len(cols)), (np.arange(len(cols)), cols)),
                        shape=(len(cols), p))


def clustered_edge_count(n_subnets, subnet_size, n_active):
    """Edge count of the clustered difference graph by direct counting."""
    clique = n_subnets * subnet_size * (subnet_size - 1) // 2
    cross = n_active * subnet_size * (n_subnets - 1) if n_active > 0 else 0
    return clique + cross


def graph_difference_coo(edges, p):
    """Signed edge-difference matrix checked edge by edge, built from COO.

    Row ``k`` holds ``+1`` at ``i`` and ``-1`` at ``j`` for edge ``(i, j)``.
    Raises ``ValueError`` on the first self-loop or out-of-range edge.
    """
    edges = [(int(i), int(j)) for i, j in edges]
    for k, (i, j) in enumerate(edges):
        if i == j or not (0 <= i < p and 0 <= j < p):
            raise ValueError(f"bad edge {k}")
    m = len(edges)
    row = np.repeat(np.arange(m), 2)
    col = np.array([idx for e in edges for idx in e])
    val = np.tile([1.0, -1.0], m)
    return sp.csr_array((val, (row, col)), shape=(m, p))


def clustered_graph_problem(seed, subnet_size, n_subnets, n_active, n_samples,
                            noise_sd, hub_correlation):
    """The clustered-network least-squares data, column by column and edge
    by edge.

    Replays the generator's draws on a Philox stream in order: the hub
    columns, the satellite noise, the observation noise, then one choice of
    ``n_subnets - 1`` distinct silent targets per signal variable, in
    coordinate order.  Returns the design, response, signal, and the CSR
    difference matrix of :func:`graph_difference_coo` over the edge list:
    every pair inside each cluster, then each signal variable's links.
    Raises ``ValueError`` when there are too few silent targets.
    """
    rng = np.random.Generator(np.random.Philox(int(seed)))
    t, n = subnet_size, n_samples
    p = n_subnets * t
    hub = rng.standard_normal((n, n_subnets))
    satellite = rng.standard_normal((n, n_subnets, t - 1))
    scale = math.sqrt(1.0 - hub_correlation**2)
    a = np.empty((n, p))
    x_true = np.zeros(p)
    for j in range(n_subnets):
        a[:, j * t] = hub[:, j]
        for s in range(1, t):
            a[:, j * t + s] = hub_correlation * hub[:, j] + scale * satellite[:, j, s - 1]
        if j < n_active:
            x_true[j * t:(j + 1) * t] = (-1.0) ** j * ((j + 2) // 2)
    b = a @ x_true + noise_sd * rng.standard_normal(n)

    edges = []
    for j in range(n_subnets):
        for u in range(t):
            for v in range(u + 1, t):
                edges.append((j * t + u, j * t + v))
    signal = n_active * t
    if n_active > 0 and n_subnets > 1:
        if p - signal < n_subnets - 1:
            raise ValueError("too few silent targets")
        for v in range(signal):
            for w in rng.choice(np.arange(signal, p), size=n_subnets - 1, replace=False):
                edges.append((v, int(w)))
    return a, b, x_true, graph_difference_coo(edges, p)


def enumerate_mask_second_moment(grad, x, pi):
    """Exact second moment of the masked-gradient error by pattern sums.

    Enumerates every inclusion pattern of the diagonal mask (entries
    ``1 / pi`` with probability ``pi``, else 0) and weights the squared
    gradient error by the pattern probability.  Exponential in ``len(x)``;
    meant for dimensions of about 3.
    """
    x = np.asarray(x, dtype=float)
    p = x.size
    exact = grad(x)
    total = 0.0
    for bits in range(2**p):
        keep = np.array([(bits >> j) & 1 for j in range(p)], dtype=float)
        prob = float(np.prod(np.where(keep > 0, pi, 1.0 - pi)))
        masked = grad(keep / pi * x)
        diff = masked - exact
        total += prob * float(diff @ diff)
    return total


def cross_block_nonzeros(k_dense, row_offsets, col_offsets):
    """Count coupling entries that straddle the worker partition.

    ``row_offsets`` and ``col_offsets`` are the boundaries of the contiguous
    dual and primal partitions (length M + 1 each, starting at 0).  An entry
    is cross-block when its row block and column block differ.
    """
    k_dense = np.asarray(k_dense)
    count = 0
    m = len(row_offsets) - 1
    for bi in range(m):
        for bj in range(m):
            if bi == bj:
                continue
            block = k_dense[row_offsets[bi]:row_offsets[bi + 1],
                            col_offsets[bj]:col_offsets[bj + 1]]
            count += int(np.count_nonzero(block))
    return count


def cross_block_rows(k_dense, row_offsets, col_offsets):
    """Per-block count of coupling rows that carry traffic.

    Entry ``[i, j]`` counts the rows of the sub-block with rows in dual
    block ``i`` and columns in primal block ``j`` that hold any nonzero.
    For ``i != j`` each such row moves one scalar per product: a forward
    product reduces that row's partial sum at the row's owner, and an
    adjoint product ships that dual entry to worker ``j`` once.  The
    off-diagonal sum is therefore the traffic of one product, at most
    :func:`cross_block_nonzeros`.
    """
    k_dense = np.asarray(k_dense)
    m = len(row_offsets) - 1
    table = np.zeros((m, m), dtype=int)
    for bi in range(m):
        for bj in range(m):
            block = k_dense[row_offsets[bi]:row_offsets[bi + 1],
                            col_offsets[bj]:col_offsets[bj + 1]]
            table[bi, bj] = int(np.any(block != 0, axis=1).sum())
    return table


def balanced_sizes(total, parts):
    """Contiguous balanced partition sizes (first blocks take the remainder)."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


# ---------------------------------------------------------------------------
# region scan, one run per cell


def plain_fb_run(problem, kappa, tau, sigma, budget, tol):
    """A plain ``fb_step`` loop from zero at relaxation 1, stopping once the
    unrelaxed step norm is at most ``tol``, at ``budget`` steps or when the
    pair leaves the finite range.  Nothing is checked against the region.

    Returns ``(iterations, converged, residual)``: ``residual`` is the step
    norm of the last step, or inf when the pair left the finite range.
    """
    from pdsplit import fb

    p, l = problem.dims
    x, y = np.zeros(p), np.zeros(l)
    residual = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, budget + 1):
            xt, yt = fb.fb_step(problem, kappa, tau, sigma, x, y)
            if not (np.isfinite(xt).all() and np.isfinite(yt).all()):
                return k, False, math.inf
            dx, dy = xt - x, yt - y
            residual = float(np.sqrt(dx @ dx + dy @ dy))
            if residual <= tol:
                return k, True, residual
            x, y = x + dx, y + dy
    return budget, False, residual


def region_scan_cells(problem, kappas, grid, span_lo, span_hi, budget, tol,
                      empirics="interior"):
    """Region-scan cells as dicts, each selected cell run by its own
    :func:`plain_fb_run`.

    The grid, the region test and the interior rule are those of
    ``pdsplit.cli.region_scan_grid``; a cell whose run leaves the finite
    range records ``converged`` 0 and ``residual`` inf.
    """
    from pdsplit import cli, fb

    l_f, k_norm = problem.L_f, problem.k_norm
    curv_scale = l_f / 2.0 if l_f > 0 else k_norm
    coup_scale = 2.0 * k_norm**2 / l_f if l_f > 0 else k_norm
    inv_taus = np.linspace(span_lo, span_hi, grid) * curv_scale
    inv_sigmas = np.linspace(span_lo, span_hi, grid) * coup_scale
    cells = []
    for kappa, inv_tau, inv_sigma in itertools.product(kappas, inv_taus, inv_sigmas):
        tau, sigma = 1.0 / inv_tau, 1.0 / inv_sigma
        valid, margins = fb.convergence_region(l_f, k_norm, kappa, tau, sigma)
        rel_min = min(margins["rel_curvature"], margins["rel_coupling"])
        slack = cli.INTERIOR_SLACK
        interior = float(rel_min > slack) if valid else float(rel_min < -slack)
        ran, converged, residual = 0.0, math.nan, math.nan
        if empirics == "all" or (empirics == "interior" and interior > 0):
            ran = 1.0
            _, hit, residual = plain_fb_run(problem, kappa, tau, sigma, budget, tol)
            converged = float(hit)
        cells.append(dict(kappa=kappa, inv_tau=inv_tau, inv_sigma=inv_sigma, tau=tau,
                          sigma=sigma, valid=float(valid), interior=interior, ran=ran,
                          converged=converged, residual=residual))
    return cells


# ---------------------------------------------------------------------------
# triplet text of a whole matrix at once


def triplet_text(matrix):
    """The triplet file of ``matrix`` as the whole-matrix writer made it: a
    ``rows cols nnz`` header, then every stored entry of
    ``scipy.sparse.coo_array(matrix)`` (the nonzeros of a dense array in
    row-major order), 1-based, with 17 significant digits."""
    coo = sp.coo_array(matrix)
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n"]
    for i, j, value in zip(coo.row, coo.col, coo.data):
        lines.append("%d %d %.17g\n" % (i + 1, j + 1, value))
    return "".join(lines)
