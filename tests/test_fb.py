"""Base iteration: region, recipe steps, steps, runner, Fejér, FBF."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsplit import bench, linops, prox, textio
from pdsplit.errors import (
    ConstraintViolation,
    DegenerateProblem,
    DimensionError,
    NonFiniteIterate,
)
from pdsplit.fb import (
    STEP_PRODUCTS,
    FbParams,
    FbResult,
    IterTrace,
    RunResult,
    convergence_region,
    default_step_sizes,
    fb_step,
    fbf_default_step,
    fbf_step,
    m_norm,
    relaxation_cap,
    run_fb,
    run_fb_block,
    run_fbf,
    validate_params,
)
from pdsplit.accel import AccelParams, run_accel
from pdsplit.saddle import (
    SaddleProblem,
    primal_objective,
    quadratic_loss,
)
from pdsplit.shard import run_fb_sharded
from pdsplit.stoch import StocParams, masked_oracle_factory, run_stoc

import oracles
from conftest import CountingDenseOp, identity_lasso_problem, make_dense_problem


def test_region_reduces_to_two_inequalities_at_kappa_zero():
    l_f, k_norm = 2.0, 1.0
    rng = np.random.default_rng(40)
    for _ in range(200):
        tau = float(rng.uniform(0.05, 2.0))
        sigma = float(rng.uniform(0.05, 2.0))
        valid, _ = convergence_region(l_f, k_norm, 0.0, tau, sigma)
        expected = 1.0 / tau > l_f / 2.0 and 1.0 / (tau * sigma) > k_norm**2
        assert valid == expected


def test_region_reduces_to_ratio_inequality_at_unit_kappa():
    l_f, k_norm = 2.0, 1.5
    rng = np.random.default_rng(41)
    for kappa in (-1.0, 1.0):
        for _ in range(200):
            tau = float(rng.uniform(0.05, 2.0))
            sigma = float(rng.uniform(0.05, 2.0))
            valid, _ = convergence_region(l_f, k_norm, kappa, tau, sigma)
            expected = (
                1.0 / tau > l_f / 2.0
                and (1.0 / tau - l_f / 2.0) / sigma > k_norm**2
            )
            assert valid == expected


def test_region_rejects_overlong_primal_step():
    valid, margins = convergence_region(2.0, 1.0, 0.0, 3.0 / 2.0, 0.1)
    assert not valid
    assert margins["curvature"] < 0


def test_region_shrinks_with_continuum_position():
    valid0, _ = convergence_region(2.0, 1.0, 0.0, 0.9, 1.0)
    valid1, _ = convergence_region(2.0, 1.0, 1.0, 0.9, 1.0)
    assert valid0 and not valid1


def test_region_nests_across_continuum_positions():
    rng = np.random.default_rng(42)
    for _ in range(200):
        tau = float(rng.uniform(0.05, 1.5))
        sigma = float(rng.uniform(0.05, 1.5))
        k1, k2 = sorted(rng.uniform(0.0, 1.0, size=2))
        valid_hi, _ = convergence_region(2.0, 1.0, k2, tau, sigma)
        valid_lo, _ = convergence_region(2.0, 1.0, k1, tau, sigma)
        if valid_hi:
            assert valid_lo


def test_region_rejects_nonpositive_steps():
    with pytest.raises(ConstraintViolation):
        convergence_region(1.0, 1.0, 0.0, 0.0, 0.5)


def test_relaxation_cap_closed_forms():
    tau, sigma, l_f, k_norm = 0.5, 0.4, 2.0, 1.0
    s = tau * sigma * k_norm**2
    assert relaxation_cap(l_f, k_norm, 0.0, tau, sigma) == pytest.approx(
        2.0 - tau * l_f / 2.0
    )
    assert relaxation_cap(l_f, k_norm, 1.0, tau, sigma) == pytest.approx(
        2.0 - (tau * l_f / 2.0) / (1.0 - s)
    )
    assert relaxation_cap(l_f, k_norm, 0.0, 2.0, 2.0) == -np.inf


def test_default_step_sizes_arithmetic_at_unit_scales():
    problem = identity_lasso_problem(np.eye(2), np.zeros(2), 1.0)
    # L_f and ||K|| both carry the 1.01 estimate-safety factor, so compare
    # against the same closed form evaluated at the problem's own constants.
    l_f, k_norm = problem.L_f, problem.k_norm
    tau, sigma = default_step_sizes(problem, 0.0)
    assert tau == pytest.approx(0.9 * 2.0 / l_f)
    half = tau * l_f / 2.0
    assert sigma == pytest.approx(
        0.9 * (1.0 - half) / ((1.0 - half) * tau * k_norm**2)
    )
    assert tau == pytest.approx(1.8, rel=0.03)
    assert sigma == pytest.approx(0.5, rel=0.05)


def test_default_step_sizes_pass_validation_across_continuum(dense_problem):
    problem, _, _, _ = dense_problem
    for kappa in (-1.0, -0.5, 0.0, 0.5, 1.0):
        tau, sigma = default_step_sizes(problem, kappa)
        valid, _ = convergence_region(
            problem.L_f, problem.k_norm, kappa, tau, sigma
        )
        assert valid


def test_default_step_sizes_for_vanishing_loss():
    rng = np.random.default_rng(43)
    k = rng.standard_normal((3, 4))
    problem = SaddleProblem(
        quadratic_loss(np.zeros((1, 4)), np.zeros(1)), k, prox.BoxClip(1.0, 3)
    )
    assert problem.L_f == 0.0
    tau, sigma = default_step_sizes(problem, 0.0)
    assert tau == pytest.approx(1.0 / problem.k_norm)
    assert tau * sigma * problem.k_norm**2 == pytest.approx(0.9)


def test_default_step_sizes_need_some_coupling():
    problem = SaddleProblem(
        quadratic_loss(np.eye(2), np.zeros(2)),
        linops.ZeroOp((2, 2)),
        prox.BoxClip(1.0, 2),
    )
    with pytest.raises(DegenerateProblem):
        default_step_sizes(problem, 0.0)


def test_validate_params_rejects_bad_settings(dense_problem):
    problem, _, _, _ = dense_problem
    with pytest.raises(ConstraintViolation):
        validate_params(problem, FbParams(kappa=1.5))
    with pytest.raises(ConstraintViolation):
        validate_params(problem, FbParams(max_iters=-1))
    with pytest.raises(ConstraintViolation):
        validate_params(problem, FbParams(record_every=0))
    with pytest.raises(ConstraintViolation):
        validate_params(problem, FbParams(tau=3.0 / problem.L_f, sigma=0.01))
    with pytest.raises(ConstraintViolation):
        validate_params(problem, FbParams(relaxation=5.0))
    for relaxation in (True, "0.5", "abc"):
        with pytest.raises(ConstraintViolation):
            params = FbParams(relaxation=relaxation, max_iters=2)
            validate_params(problem, params)


def test_validate_params_recipe_relaxation(dense_problem):
    problem, _, _, _ = dense_problem
    info = validate_params(problem, FbParams())
    assert info["rho"] == pytest.approx(
        0.9 * relaxation_cap(problem.L_f, problem.k_norm, 0.0, info["tau"],
                             info["sigma"])
    )
    assert 0.0 < info["rho"] < info["delta"]


def _dense_pieces(a, b, k, lam):
    grad = lambda x: a.T @ (a @ x - b)
    prox_fn = lambda v, s: np.clip(v, -lam, lam)
    return grad, prox_fn


def test_fb_step_matches_half_extrapolated_form(dense_problem):
    problem, a, b, k = dense_problem
    grad, prox_fn = _dense_pieces(a, b, k, 1.0)
    rng = np.random.default_rng(44)
    x = rng.standard_normal(6)
    y = prox_fn(rng.standard_normal(4), 1.0)
    tau, sigma = 0.1, 0.2
    xt, yt = fb_step(problem, 0.0, tau, sigma, x, y)
    ox, oy = oracles.loris_verhoeven_step(grad, k, prox_fn, tau, sigma, x, y)
    np.testing.assert_allclose(xt, ox, atol=1e-12)
    np.testing.assert_allclose(yt, oy, atol=1e-12)


def test_fb_step_matches_primal_extrapolated_form(dense_problem):
    problem, a, b, k = dense_problem
    grad, prox_fn = _dense_pieces(a, b, k, 1.0)
    rng = np.random.default_rng(45)
    x = rng.standard_normal(6)
    y = prox_fn(rng.standard_normal(4), 1.0)
    tau, sigma = 0.08, 0.15
    xt, yt = fb_step(problem, -1.0, tau, sigma, x, y)
    ox, oy = oracles.condat_vu_step(grad, k, prox_fn, tau, sigma, x, y)
    np.testing.assert_allclose(xt, ox, atol=1e-12)
    np.testing.assert_allclose(yt, oy, atol=1e-12)


def test_fb_step_matches_dual_extrapolated_form(dense_problem):
    problem, a, b, k = dense_problem
    grad, prox_fn = _dense_pieces(a, b, k, 1.0)
    rng = np.random.default_rng(46)
    x = rng.standard_normal(6)
    y = prox_fn(rng.standard_normal(4), 1.0)
    tau, sigma = 0.08, 0.15
    xt, yt = fb_step(problem, 1.0, tau, sigma, x, y)
    ox, oy = oracles.dual_condat_vu_step(grad, k, prox_fn, tau, sigma, x, y)
    np.testing.assert_allclose(xt, ox, atol=1e-12)
    np.testing.assert_allclose(yt, oy, atol=1e-12)


def test_fb_step_at_primal_first_end_is_the_transformed_half_update(dense_problem):
    # The paper's unification: kappa -1 is a block-diagonal-metric iteration
    # on (u, v) = (x - tau K'y, y), mapped back by x = u + tau K'v.
    problem, a, b, k = dense_problem
    grad, prox_fn = _dense_pieces(a, b, k, 1.0)
    rng = np.random.default_rng(47)
    x = rng.standard_normal(6)
    y = prox_fn(rng.standard_normal(4), 1.0)
    tau, sigma = 0.08, 0.15
    xt, yt = fb_step(problem, -1.0, tau, sigma, x, y)
    u, v = oracles.transformed_half_update_step(grad, k, prox_fn, tau, sigma,
                                                x - tau * (k.T @ y), y)
    np.testing.assert_allclose(xt, u + tau * (k.T @ v), atol=1e-12)
    np.testing.assert_allclose(yt, v, atol=1e-12)


def test_primal_first_metric_is_block_diagonal_after_the_change_of_variables():
    k = np.random.default_rng(49).standard_normal((4, 6))
    tau, sigma = 0.08, 0.15
    low = oracles.lower_triangular_change(k, tau)
    diag = np.zeros((10, 10))
    diag[:6, :6] = np.eye(6) / tau
    diag[6:, 6:] = np.eye(4) / sigma - tau * (k @ k.T)
    np.testing.assert_allclose(oracles.metric_matrix(k, -1.0, tau, sigma),
                               low @ diag @ low.T, atol=1e-12)


def test_fb_step_collapses_to_gradient_descent_without_coupling():
    problem = SaddleProblem(
        quadratic_loss(np.eye(3), np.array([1.0, 2.0, 3.0])),
        linops.ZeroOp((2, 3)),
        prox.BoxClip(1.0, 2),
    )
    x = np.array([0.5, 0.0, -0.5])
    y = np.array([0.3, -0.3])
    xt, yt = fb_step(problem, 0.7, 0.4, 0.6, x, y)
    np.testing.assert_allclose(xt, x - 0.4 * (x - np.array([1.0, 2.0, 3.0])),
                               atol=1e-15)
    np.testing.assert_array_equal(yt, y)


def test_fb_step_is_stationary_at_closed_form_fixed_point():
    lam = 0.5
    b = np.array([3.0, 0.2, -2.0])
    problem = identity_lasso_problem(np.eye(3), b, lam)
    x_star = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
    y_star = b - x_star
    for kappa in (-1.0, 0.0, 0.5, 1.0):
        xt, yt = fb_step(problem, kappa, 0.5, 0.5, x_star, y_star)
        np.testing.assert_allclose(xt, x_star, atol=1e-14)
        np.testing.assert_allclose(yt, y_star, atol=1e-14)


def _metric_problems():
    """A dense, a CSR and a latent coupling, and a column stack of CSR blocks
    under an all-zero design (``L_f = 0``) whose penalty ties part of ``K x``
    to a shift."""
    rng = np.random.default_rng(47)
    csr = sp.random_array((70, 80), density=0.05, format="csr", rng=rng)
    a = rng.standard_normal((9, 80))
    shift = 0.1 * (csr[40:] @ rng.standard_normal(80))
    latent = bench.SyntheticSpec(kind="latent-group-lasso", seed=7, n_groups=3,
                                 group_size=12, n_samples=15)
    return {
        "dense": make_dense_problem()[0],
        "csr": SaddleProblem(quadratic_loss(a, rng.standard_normal(9)),
                             linops.SparseOp(csr), prox.BoxClip(1.0, 70)),
        "zero-design": SaddleProblem(
            quadratic_loss(np.zeros((9, 80)), rng.standard_normal(9)),
            linops.HStackOp([linops.SparseOp(csr[:, :40]), linops.SparseOp(csr[:, 40:])]),
            prox.Composite([prox.BoxClip(1.0, 40), prox.IdentityShift(30, shift)])),
        "latent": bench.generate(latent).problem,
    }


@pytest.mark.parametrize("name", ["dense", "csr", "zero-design", "latent"])
def test_m_norm_matches_the_dense_metric_across_continuum(name):
    problem = _metric_problems()[name]
    k = oracles.densify(problem.K)
    rng = np.random.default_rng(48)
    p, l = problem.dims
    tau = 0.2
    # ``tau sigma ||K||^2 < 1`` keeps the metric positive definite.
    sigma = 0.5 / (tau * np.linalg.norm(k, 2) ** 2)
    dx, dy = rng.standard_normal(p), rng.standard_normal(l)
    d = np.concatenate([dx, dy])
    for kappa in (-1.0, -0.5, 0.0, 0.5, 1.0):
        want = np.sqrt(d @ oracles.metric_matrix(k, kappa, tau, sigma) @ d)
        got = m_norm(problem, kappa, tau, sigma, dx, dy)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _assert_same_rows(got, want):
    """Bitwise equal traces, apart from the wall-clock column."""
    assert got.columns == want.columns
    for name in got.columns:
        if name != "seconds":
            assert got.column(name).tobytes() == want.column(name).tobytes(), name


def _check_block_column(problem, got, kappa, tau, sigma, budget, tol):
    """Check one ``run_fb_block`` column and return its outcome.

    A column whose cell passes ``validate_params`` at relaxation 1 is
    bitwise the validated ``run_fb`` of its cell; any other is bitwise the
    ``_fb_pairs`` replay of its cell, and one that leaves the finite range
    does so at the iteration ``_first_nonfinite_pair`` names, with no row.
    """
    assert (got.tau, got.sigma, got.rho) == (tau, sigma, 1.0)
    params = FbParams(kappa=kappa, tau=tau, sigma=sigma, relaxation=1.0,
                      max_iters=budget, record_every=max(budget, 1))
    try:
        validate_params(problem, params)
    except ConstraintViolation:
        pass
    else:
        want = run_fb(problem, params, tol=tol)
        for field in ("x", "y", "x_tilde", "y_tilde"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.rho == want.rho
        _assert_same_rows(got.trace, want.trace)
        return "converged" if got.converged else "budget"
    p, l = problem.dims
    start = (np.zeros(p), np.zeros(l))
    left = _first_nonfinite_pair(_fb_pairs(problem, tau, sigma, 1.0, *start, kappa), budget)
    want, k, hit = (*start, *start), 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (xt, yt, x, y) in zip(range(1, budget + 1),
                                     _fb_pairs(problem, tau, sigma, 1.0, *start, kappa)):
            dx, dy = xt - x, yt - y
            want = (x + 1.0 * dx, y + 1.0 * dy, xt, yt)
            hit = bool(np.sqrt(dx @ dx + dy @ dy) <= tol)
            if k == left or hit:
                break
    for field, value in zip(("x", "y", "x_tilde", "y_tilde"), want):
        assert getattr(got, field).tobytes() == value.tobytes(), field
    assert (got.iterations, got.converged) == (k, hit)
    if left is not None:
        assert k == left and len(got.trace) == 0
        return "left"
    return "converged" if hit else "budget"


@pytest.mark.parametrize("name", ["dense", "csr", "zero-design", "latent"])
def test_run_fb_block_columns_are_run_fb(name):
    problem = _metric_problems()[name]
    kappa, tau, sigma = [], [], []
    for k in (-0.5, 0.0, 1.0):
        tau0, sigma0 = default_step_sizes(problem, k)
        for scale in (0.5, 1.0, 3.0, 1e8):
            kappa.append(k)
            tau.append(scale * tau0)
            sigma.append(scale * sigma0)
    budget, tol = 80, 1e-1
    with np.errstate(over="ignore", invalid="ignore"):
        block = run_fb_block(problem, kappa, tau, sigma, budget, tol)
    outcomes = {_check_block_column(problem, got, kappa[j], tau[j], sigma[j], budget, tol)
                for j, got in enumerate(block)}
    assert outcomes == {"converged", "budget", "left"}


def test_run_fb_block_of_no_columns_makes_no_step(tiny_lasso):
    assert run_fb_block(tiny_lasso.problem, [], [], [], 50, 1e-6) == []
    with pytest.raises(DimensionError):
        run_fb_block(tiny_lasso.problem, [0.0, 0.5], [0.1], [0.1, 0.2], 50, 1e-6)


def test_run_fb_block_of_no_steps_is_the_start_point(tiny_lasso):
    problem = tiny_lasso.problem
    cells = ([0.5, 0.0], [0.1, 0.2], [0.1, 0.3])
    block = run_fb_block(problem, *cells, 0, 1e-6)
    for got, cell in zip(block, zip(*cells)):
        assert _check_block_column(problem, got, *cell, 0, 1e-6) == "budget"
        assert (got.iterations, got.converged, len(got.trace)) == (0, False, 0)


def test_metric_distance_needs_no_dense_metric_above_two_thousand_rows():
    p, lam = 1001, 0.5
    b = np.random.default_rng(49).standard_normal(p)
    problem = SaddleProblem(quadratic_loss(linops.IdentityOp(p), b),
                            linops.IdentityOp(p), prox.BoxClip(lam, p))
    assert sum(problem.dims) > 2000
    x_star = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
    params = FbParams(kappa=0.5, max_iters=40)
    res = run_fb(problem, params)
    mdist = res.trace.column("mdist")
    assert np.isfinite(mdist).all() and (mdist > 0).all()
    iterates = oracles.relaxed_iterates(problem, params)
    report = oracles.fejer_check(problem, params, iterates, (x_star, b - x_star))
    assert report["ok"] and np.isfinite(report["distances"]).all()


def test_the_forward_backward_runners_return_run_results_of_their_own_class(tiny_lasso):
    problem = tiny_lasso.problem
    results = [run_fb(problem, FbParams(max_iters=3)), run_fbf(problem, max_iters=3),
               *run_fb_block(problem, [0.0, 1.0], [0.1, 0.1], [0.1, 0.1], 3, None)]
    for result in results:
        assert type(result) is FbResult and isinstance(result, RunResult)


def test_run_fb_zero_iterations_returns_start(tiny_lasso):
    x0 = np.ones(tiny_lasso.problem.dims[0])
    res = run_fb(tiny_lasso.problem, FbParams(max_iters=0), x0=x0)
    np.testing.assert_array_equal(res.x, x0)
    assert res.iterations == 0
    assert len(res.trace) == 0


def test_run_fb_trace_cadence_and_monotone_index(tiny_lasso):
    res = run_fb(tiny_lasso.problem, FbParams(max_iters=10, record_every=3))
    ks = res.trace.column("k")
    np.testing.assert_array_equal(ks, [3, 6, 9, 10])
    assert np.all(np.diff(ks) > 0)


def test_run_fb_stops_at_tolerance(tiny_lasso):
    res = run_fb(tiny_lasso.problem, FbParams(max_iters=50000), tol=1e-9)
    assert res.converged
    assert res.iterations < 50000
    assert res.trace.column("residual")[-1] <= 1e-9


def test_run_fb_ergodic_average_replays_step_mean(tiny_lasso):
    problem = tiny_lasso.problem
    params = FbParams(max_iters=5, relaxation=1.0)
    res = run_fb(problem, params)
    info = validate_params(problem, params)
    x = np.zeros(problem.dims[0])
    y = np.zeros(problem.dims[1])
    tilde_sum = np.zeros_like(x)
    for _ in range(5):
        xt, yt = fb_step(problem, 0.0, info["tau"], info["sigma"], x, y)
        tilde_sum += xt
        x, y = xt, yt
    expected = primal_objective(problem, tilde_sum / 5.0)
    assert res.trace.column("ergodic_objective")[-1] == pytest.approx(expected)


def _understated_lasso():
    """A lasso whose loss understates its curvature, so that its recipe
    steps leave the region and a validated run diverges."""
    problem = identity_lasso_problem(np.eye(2), np.array([3.0, -1.0]), 0.5)
    loss = problem.loss
    return SaddleProblem(type(loss)(loss.A, loss.b, 0.01), problem.K, problem.hconj)


def test_run_fb_flags_divergence():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIterate):
            run_fb(_understated_lasso(), FbParams(max_iters=5000), x0=np.ones(2))


def _fb_pairs(problem, tau, sigma, rho, x, y, kappa=0.0):
    """Resolvent pairs and relaxed predecessors of a plain ``fb_step`` loop."""
    while True:
        xt, yt = fb_step(problem, kappa, tau, sigma, x, y)
        yield xt, yt, x, y
        x = x + rho * (xt - x)
        y = y + rho * (yt - y)


def _fbf_pairs(problem, tau, alpha, x, y):
    """Iterate pairs of a plain inertial ``fbf_step`` loop."""
    x_prev, y_prev = x, y
    while True:
        x_new, y_new = fbf_step(problem, tau, x, y, x_prev, y_prev, alpha, alpha)
        yield x_new, y_new
        x_prev, y_prev, x, y = x, y, x_new, y_new


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
def test_sparse_rows_read_the_metric_of_their_own_step(tiny_lasso, kappa):
    problem = tiny_lasso.problem
    n = 120
    dense = run_fb(problem, FbParams(kappa=kappa, max_iters=n, record_every=1))
    info = validate_params(problem, FbParams(kappa=kappa))
    pairs = _fb_pairs(problem, info["tau"], info["sigma"], info["rho"],
                      np.zeros(problem.dims[0]), np.zeros(problem.dims[1]), kappa)
    replay = {"residual": [], "mdist": []}
    for _, (xt, yt, x, y) in zip(range(n), pairs):
        dx, dy = xt - x, yt - y
        replay["residual"].append(float(np.sqrt(dx @ dx + dy @ dy)))
        replay["mdist"].append(m_norm(problem, kappa, info["tau"], info["sigma"], dx, dy))
    for column, values in replay.items():
        np.testing.assert_array_equal(dense.trace.column(column), values)

    residual = dense.trace.column("residual")
    # A tolerance whose first crossing falls between two cadence points.
    first_hits = [int(np.argmax(residual <= tol)) + 1 for tol in residual[20:]]
    stop = next(k for k in first_hits if k % 7 and k > 14)
    sparse = run_fb(problem, FbParams(kappa=kappa, max_iters=n, record_every=7))
    stopped = run_fb(problem, FbParams(kappa=kappa, max_iters=n, record_every=7),
                     tol=residual[stop - 1])
    assert stopped.converged and stopped.iterations == stop
    for res in (sparse, stopped):
        rows = res.trace.column("k").astype(int) - 1
        assert rows[-1] == res.iterations - 1
        for column in ("objective", "ergodic_objective", "residual", "mdist"):
            np.testing.assert_array_equal(res.trace.column(column),
                                          dense.trace.column(column)[rows])


def _first_nonfinite_pair(pairs, n):
    """Index of the first pair with a non-finite entry, checking every pair."""
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (x_t, y_t, *_) in zip(range(1, n + 1), pairs):
            if not (np.isfinite(x_t).all() and np.isfinite(y_t).all()):
                return k
    return None


def _nonfinite_iteration(run):
    """Iteration named by the ``NonFiniteIterate`` that ``run`` raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIterate) as err:
            run()
    return int(str(err.value).rsplit(" ", 1)[-1])


def test_runners_flag_the_first_nonfinite_pair_of_an_independent_replay():
    problem = identity_lasso_problem(np.eye(2), np.array([3.0, -1.0]), 0.5)
    x0, y0 = np.ones(2), np.zeros(2)

    tau = fbf_default_step(problem)
    want = _first_nonfinite_pair(_fbf_pairs(problem, tau, 3.0, x0, y0), 5000)
    got = _nonfinite_iteration(
        lambda: run_fbf(problem, alpha1=3.0, alpha2=3.0, max_iters=5000, x0=x0))
    assert want is not None and got == want

    # The relaxed runs validate their parameters, so they diverge on a loss
    # that understates its curvature: the recipe steps then leave the region.
    understated = _understated_lasso()
    params = FbParams(max_iters=5000)
    info = validate_params(understated, params)
    want = _first_nonfinite_pair(
        _fb_pairs(understated, info["tau"], info["sigma"], info["rho"], x0, y0), 5000)
    assert want is not None
    for run in (lambda: run_fb(understated, params, x0=x0),
                lambda: run_fb_sharded(understated, params, 2, x0=x0)):
        assert _nonfinite_iteration(run) == want


@pytest.mark.parametrize("runner", ["run_fb", "run_fbf", "run_fb_sharded"])
def test_overflowing_residual_of_a_finite_pair_does_not_raise(runner):
    problem = identity_lasso_problem(np.eye(2), np.array([3.0, -1.0]), 0.5)
    x0 = np.array([1e200, -1e200])
    run = {
        "run_fb": lambda: run_fb(problem, FbParams(max_iters=1), x0=x0),
        "run_fbf": lambda: run_fbf(problem, max_iters=1, x0=x0),
        "run_fb_sharded": lambda: run_fb_sharded(problem, FbParams(max_iters=1), 2,
                                                 x0=x0),
    }[runner]
    with np.errstate(over="ignore"):
        res = run()
    # The step moves by about 1e200, so its squared residual overflows while
    # the pair stays finite.
    assert np.isfinite(res.x).all() and np.isfinite(res.y).all()
    assert res.iterations == 1
    np.testing.assert_array_equal(res.trace.column("residual"), [np.inf])


def _stoc_run(problem, x0=None, y0=None):
    params = StocParams(mode="kappa", kappa=1.0, omega_x=3.0, omega_y=3.0,
                        horizon=3)
    factory = masked_oracle_factory(problem, params, 1.0)
    return run_stoc(problem, params, factory, seeds=[0], x0=x0, y0=y0)


START_RUNNERS = {
    "run_fb": lambda pr, **st: run_fb(pr, FbParams(max_iters=1), **st),
    "run_fbf": lambda pr, **st: run_fbf(pr, max_iters=1, **st),
    "run_fb_sharded": lambda pr, **st: run_fb_sharded(
        pr, FbParams(max_iters=1), 3, **st
    ),
    "run_accel": lambda pr, **st: run_accel(
        pr, AccelParams(omega_x=3.0, omega_y=3.0, max_iters=1), **st
    ),
    "run_stoc": _stoc_run,
}


@pytest.mark.parametrize("runner", sorted(START_RUNNERS))
def test_run_fb_rejects_mismatched_start(tiny_lasso, runner):
    problem = tiny_lasso.problem
    p, l = problem.dims
    run = START_RUNNERS[runner]
    with pytest.raises(DimensionError):
        run(problem, x0=np.zeros(p + 1))
    with pytest.raises(DimensionError):
        run(problem, y0=np.zeros(l + 2))
    with pytest.raises(DimensionError):
        run(problem, x0=np.zeros((p, 1)))


def _stoc_every(problem, n_steps, every):
    params = StocParams(mode="kappa", kappa=1.0, omega_x=3.0, omega_y=3.0,
                        horizon=3, record_every=every)
    factory = masked_oracle_factory(problem, params, 1.0)
    return run_stoc(problem, params, factory, seeds=[0, 1])


BUDGET_RUNNERS = {
    "run_fb": lambda pr, n, every: run_fb(pr, FbParams(max_iters=n, record_every=every)),
    "run_fbf": lambda pr, n, every: run_fbf(pr, max_iters=n, record_every=every),
    "run_fb_sharded": lambda pr, n, every: run_fb_sharded(
        pr, FbParams(max_iters=n, record_every=every), 3
    ),
    "run_accel": lambda pr, n, every: run_accel(
        pr, AccelParams(setting="unbounded", horizon=5, max_iters=n,
                        record_every=every)
    ),
    # The stochastic budget is horizon - 1 >= 1; only the cadence can be bad.
    "run_stoc": _stoc_every,
}


# A negative or non-integer budget, and a zero or non-integer cadence; a bool
# is not an integer here.
BAD_BUDGETS = ((-2, 1), (4, 0), (2.5, 1), (np.float64(3.0), 1), (True, 1), (4, 1.5),
               (4, True))


@pytest.mark.parametrize(
    "runner, n_steps, every",
    [(name, n, every) for name in sorted(BUDGET_RUNNERS)
     for n, every in BAD_BUDGETS if name != "run_stoc" or n == 4],
)
def test_runners_reject_negative_budget_and_zero_cadence(tiny_lasso, runner,
                                                         n_steps, every):
    with pytest.raises(ConstraintViolation):
        BUDGET_RUNNERS[runner](tiny_lasso.problem, n_steps, every)


# A bool, a string and NaN: none is a number a run can use.
BAD_VALUES = (True, "a", np.nan)


@pytest.mark.parametrize("field, value",
                         [(f, v) for f in ("kappa", "tau", "sigma") for v in BAD_VALUES])
def test_relaxed_runs_refuse_a_bool_string_or_nan_setting(tiny_lasso, field, value):
    problem = tiny_lasso.problem
    for run in (lambda params: validate_params(problem, params),
                lambda params: run_fb(problem, params),
                lambda params: run_fb_sharded(problem, params, 2)):
        with pytest.raises(ConstraintViolation, match=field):
            params = FbParams(**{field: value}, max_iters=2)
            run(params)


TOL_RUNNERS = {
    "run_fb": lambda pr, tol: run_fb(pr, FbParams(max_iters=2), tol=tol),
    "run_fbf": lambda pr, tol: run_fbf(pr, max_iters=2, tol=tol),
    "run_fb_block": lambda pr, tol: run_fb_block(pr, [0.0], [0.1], [0.1], 2, tol),
    "run_fb_sharded": lambda pr, tol: run_fb_sharded(pr, FbParams(max_iters=2), 2, tol=tol),
}


@pytest.mark.parametrize("runner, tol", [(name, tol) for name in sorted(TOL_RUNNERS)
                                         for tol in (*BAD_VALUES, -1e-3)])
def test_runners_refuse_a_bool_string_nan_or_negative_tolerance(tiny_lasso, runner, tol):
    with pytest.raises(ConstraintViolation, match="tolerance"):
        TOL_RUNNERS[runner](tiny_lasso.problem, tol)


@pytest.mark.parametrize("name, value", [(n, v) for n in ("tau", "alpha1", "alpha2")
                                         for v in (*BAD_VALUES, np.inf)])
def test_run_fbf_refuses_a_step_or_inertia_that_is_not_finite(tiny_lasso, name, value):
    with pytest.raises(ConstraintViolation, match=name):
        run_fbf(tiny_lasso.problem, max_iters=2, **{name: value})


@pytest.mark.parametrize("cell", [(5.0, 0.1, 0.1), (np.nan, 0.1, 0.1), (0.0, -0.1, 0.1),
                                  (0.0, 0.1, 0.0), (0.0, np.nan, 0.1), (0.0, 0.1, np.nan)])
def test_run_fb_block_refuses_a_cell_off_the_continuum_or_a_nonpositive_step(tiny_lasso,
                                                                            cell):
    kappa, tau, sigma = cell
    with pytest.raises(ConstraintViolation):
        run_fb_block(tiny_lasso.problem, [0.5, kappa], [0.1, tau], [0.1, sigma], 5, 1e-6)


@pytest.mark.parametrize("row", ["kappa", "tau", "sigma"])
@pytest.mark.parametrize("value", [True, np.True_, "a", 0.1j, None])
def test_run_fb_block_refuses_an_entry_that_is_not_a_real_number(tiny_lasso, row, value):
    cells = {"kappa": [0.5, 0.0], "tau": [0.1, 0.1], "sigma": [0.1, 0.1]}
    cells[row][1] = value
    with pytest.raises(ConstraintViolation, match=f"every {row} must be a (finite|real) number"):
        run_fb_block(tiny_lasso.problem, cells["kappa"], cells["tau"], cells["sigma"], 5,
                     1e-6)


def test_run_fb_block_takes_an_infinite_step_as_given(tiny_lasso):
    # The region scan of a degenerate problem forms infinite steps.
    with np.errstate(over="ignore", invalid="ignore"):
        [res] = run_fb_block(tiny_lasso.problem, [0.0], [np.inf], [0.1], 5, 1e-6)
    assert (res.tau, res.iterations, res.converged) == (np.inf, 1, False)
    assert not np.isfinite(res.x_tilde).all()


def test_run_fb_stores_an_admissible_numeric_relaxation_as_a_float(tiny_lasso):
    problem = tiny_lasso.problem
    for relaxation in (1, 0.5, np.float64(0.5)):
        res = run_fb(problem, FbParams(max_iters=2, relaxation=relaxation))
        assert res.rho == relaxation
        assert type(res.rho) is float


def test_run_fb_replays_relaxed_step_loop(tiny_lasso):
    problem = tiny_lasso.problem
    params = FbParams(kappa=0.5, relaxation=0.6, max_iters=23, record_every=5)
    res = run_fb(problem, params)
    info = validate_params(problem, params)
    x = np.zeros(problem.dims[0])
    y = np.zeros(problem.dims[1])
    for _ in range(23):
        xt, yt = fb_step(problem, 0.5, info["tau"], info["sigma"], x, y)
        x = x + 0.6 * (xt - x)
        y = y + 0.6 * (yt - y)
    np.testing.assert_array_equal(res.x, x)
    np.testing.assert_array_equal(res.y, y)
    np.testing.assert_array_equal(res.x_tilde, xt)
    np.testing.assert_array_equal(res.y_tilde, yt)
    np.testing.assert_array_equal(res.trace.column("k"), [5, 10, 15, 20, 23])


def test_fejer_constant_sequence_at_fixed_point_passes(tiny_lasso,
                                                       tiny_lasso_reference):
    ref = tiny_lasso_reference
    z = (ref.x, ref.y)
    report = oracles.fejer_check(tiny_lasso.problem, FbParams(), [z, z, z], z)
    assert report["ok"]
    assert report["first_violation"] is None
    assert report["max_increase"] == pytest.approx(0.0, abs=1e-15)


def test_fejer_reports_first_violation_on_synthetic_sequence(tiny_lasso):
    problem = tiny_lasso.problem
    p, l = problem.dims
    z_star = (np.zeros(p), np.zeros(l))
    direction = np.ones(p)
    # Metric distances proportional to [3, 2, 2.5, 1]: one bump at index 2.
    iterates = [(c * direction, np.zeros(l)) for c in (3.0, 2.0, 2.5, 1.0)]
    report = oracles.fejer_check(problem, FbParams(), iterates, z_star)
    assert not report["ok"]
    assert report["first_violation"] == 2
    assert len(report["distances"]) == 4


def test_fejer_passes_on_valid_run(tiny_lasso, tiny_lasso_reference):
    iterates = oracles.relaxed_iterates(tiny_lasso.problem, FbParams(max_iters=300))
    ref = tiny_lasso_reference
    report = oracles.fejer_check(tiny_lasso.problem, FbParams(), iterates,
                                 (ref.x, ref.y))
    assert report["ok"]


def _diagonal_lasso(d, b, lam):
    """``0.5 ||diag(d) x - b||^2 + lam ||x||_1`` with identity coupling, and
    its saddle point in closed form: ``x*`` soft-thresholds ``d b`` at
    ``lam`` and divides by ``d^2``, and ``y* = d (b - d x*)`` is the
    negative gradient there."""
    problem = identity_lasso_problem(np.diag(d), b, lam)
    x_star = np.sign(b) * np.maximum(d * np.abs(b) - lam, 0.0) / d**2
    return problem, (x_star, d * (b - d * x_star))


def test_diagonal_lasso_saddle_point_is_stationary():
    d, b, lam = np.array([0.5, 2.0, 1.0]), np.array([3.0, 0.2, -2.0]), 0.5
    problem, (x_star, y_star) = _diagonal_lasso(d, b, lam)
    for kappa in (-1.0, 0.0, 0.5, 1.0):
        xt, yt = fb_step(problem, kappa, 0.3, 0.4, x_star, y_star)
        np.testing.assert_allclose(xt, x_star, atol=1e-14)
        np.testing.assert_allclose(yt, y_star, atol=1e-14)


@pytest.mark.parametrize("kappa", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_plain_continuum_ergodic_gap_is_order_one_over_n(kappa):
    # The paper's O(1/N) ergodic rate over the continuum: at relaxation 1
    # (each resolvent pair is the next iterate) and steps inside the region,
    # the means of the first N resolvent pairs keep N times the gap
    # L(x_N, y*) - L(x*, y_N) below ||z_0 - z*||_M^2 / 2.
    d, b, lam = np.array([0.5, 2.0, 1.0]), np.array([3.0, 0.2, -2.0]), 0.5
    problem, (x_star, y_star) = _diagonal_lasso(d, b, lam)
    x0, y0 = np.array([2.0, -1.0, 0.5]), np.array([-0.3, 0.4, 0.1])
    dz = np.concatenate([x0 - x_star, y0 - y_star])
    # Fractions of the curvature cap, then of the largest dual step there.
    for tau_frac, sigma_frac in ((0.9, 0.9), (0.5, 0.3), (0.1, 0.95), (0.95, 0.1)):
        tau = tau_frac * 2.0 / problem.L_f
        half = tau * problem.L_f / 2.0
        sigma = sigma_frac * (1.0 - half) / (
            (1.0 - (1.0 - kappa**2) * half) * tau * problem.k_norm**2)
        assert convergence_region(problem.L_f, problem.k_norm, kappa, tau, sigma)[0]
        metric = oracles.metric_matrix(oracles.densify(problem.K), kappa, tau, sigma)
        bound = float(dz @ metric @ dz) / 2.0
        x, y, sum_x, sum_y = x0, y0, np.zeros(3), np.zeros(3)
        for n in range(1, 4097):
            x, y = fb_step(problem, kappa, tau, sigma, x, y)
            sum_x, sum_y = sum_x + x, sum_y + y
            if n in (16, 64, 256, 1024, 4096):
                gap = (oracles.lagrangian(problem, sum_x / n, y_star)
                       - oracles.lagrangian(problem, x_star, sum_y / n))
                assert -1e-12 <= gap and n * gap <= bound, (tau_frac, sigma_frac, n)


@st.composite
def _region_runs(draw):
    """A diagonal lasso, a start, ``kappa`` in ``[-1, 1]``, a step pair
    strictly inside the region and a relaxation below its cap."""
    p = draw(st.integers(1, 6))
    unit = st.floats(0.05, 0.95)
    d = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=p, max_size=p)))
    b = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p)))
    start = [np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=p, max_size=p)))
             for _ in range(2)]
    problem, z_star = _diagonal_lasso(d, b, draw(st.floats(0.05, 2.0)))
    kappa = draw(st.floats(-1.0, 1.0))
    # A fraction of the curvature cap, then of the largest dual step there.
    tau = draw(unit) * 2.0 / problem.L_f
    half = tau * problem.L_f / 2.0
    sigma = draw(unit) * (1.0 - half) / (
        (1.0 - (1.0 - kappa**2) * half) * tau * problem.k_norm**2)
    rho = draw(unit) * relaxation_cap(problem.L_f, problem.k_norm, kappa, tau, sigma)
    params = FbParams(kappa=kappa, tau=tau, sigma=sigma, relaxation=rho, max_iters=60)
    return problem, params, start, z_star


@settings(max_examples=60, deadline=None)
@given(_region_runs())
def test_runs_inside_the_region_are_fejer_monotone(run):
    # The paper's central claim: every member of the kappa continuum, with
    # steps inside the region and a relaxation below the cap, moves no
    # farther from the saddle point in the preconditioner's metric.
    problem, params, (x0, y0), z_star = run
    assert convergence_region(problem.L_f, problem.k_norm, params.kappa,
                              params.tau, params.sigma)[0]
    iterates = oracles.relaxed_iterates(problem, params, x0, y0)
    report = oracles.fejer_check(problem, params, iterates, z_star)
    assert report["ok"], report["first_violation"]


def test_fbf_step_matches_oracle(dense_problem):
    problem, a, b, k = dense_problem
    grad, prox_fn = _dense_pieces(a, b, k, 1.0)
    rng = np.random.default_rng(49)
    x = rng.standard_normal(6)
    y = rng.standard_normal(4)
    x_prev = rng.standard_normal(6)
    y_prev = rng.standard_normal(4)
    for a1, a2 in ((0.0, 0.0), (0.3, 0.1)):
        got_x, got_y = fbf_step(problem, 0.05, x, y, x_prev, y_prev, a1, a2)
        exp_x, exp_y = oracles.fbf_inertial_step(
            grad, k, prox_fn, 0.05, x, y, x_prev, y_prev, a1, a2
        )
        np.testing.assert_allclose(got_x, exp_x, atol=1e-12)
        np.testing.assert_allclose(got_y, exp_y, atol=1e-12)


def test_fbf_zero_inertia_without_coupling_is_double_gradient_step():
    problem = SaddleProblem(
        quadratic_loss(np.eye(2), np.zeros(2)),
        linops.ZeroOp((1, 2)),
        prox.BoxClip(1.0, 1),
    )
    x = np.array([1.0, -2.0])
    y = np.zeros(1)
    xt, _ = fbf_step(problem, 0.3, x, y, x, y)
    np.testing.assert_allclose(xt, x - 0.3 * x, atol=1e-15)


def test_run_fbf_replays_inertial_step_loop(tiny_lasso):
    problem = tiny_lasso.problem
    tau = 0.5 / (problem.L_f + problem.k_norm)
    res = run_fbf(problem, tau=tau, alpha1=0.2, alpha2=0.1, max_iters=17,
                  record_every=4)
    x = np.zeros(problem.dims[0])
    y = np.zeros(problem.dims[1])
    x_prev, y_prev = x, y
    for _ in range(17):
        x_new, y_new = fbf_step(problem, tau, x, y, x_prev, y_prev, 0.2, 0.1)
        x_prev, y_prev, x, y = x, y, x_new, y_new
    np.testing.assert_array_equal(res.x, x)
    np.testing.assert_array_equal(res.y, y)
    np.testing.assert_array_equal(res.trace.column("k"), [4, 8, 12, 16, 17])


def test_fbf_objective_decreases_on_tiny_lasso(tiny_lasso):
    res = run_fbf(tiny_lasso.problem, max_iters=100)
    obj = res.trace.column("objective")
    assert obj[-1] < obj[0]
    assert np.all(np.diff(obj) <= 1e-12)


def test_fbf_rejects_overlong_step(tiny_lasso):
    problem = tiny_lasso.problem
    cap = 1.0 / (problem.L_f + problem.k_norm)
    with pytest.raises(ConstraintViolation):
        run_fbf(problem, tau=cap)
    assert fbf_default_step(problem) == pytest.approx(0.99 * cap)


@pytest.mark.parametrize("tau", [None, 0.5])
def test_run_fbf_refuses_a_problem_whose_forward_map_is_zero(tau):
    problem = SaddleProblem(quadratic_loss(linops.DenseOp(np.zeros((3, 4))), np.ones(3)),
                            linops.ZeroOp((2, 4)), prox.BoxClip(1.0, 2))
    assert problem.L_f + problem.k_norm == 0.0
    with pytest.raises(DegenerateProblem, match="L_f"):
        run_fbf(problem, tau=tau, max_iters=3)


def test_trace_round_trips_through_csv(tmp_path, tiny_lasso):
    res = run_fb(tiny_lasso.problem, FbParams(max_iters=20, record_every=4))
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    columns, values = textio.read_table(path)
    loaded = dict(zip(columns, values.T))
    assert columns == res.trace.columns
    for col in res.trace.columns:
        got = loaded[col]
        want = res.trace.column(col)
        mask = ~np.isnan(want)
        np.testing.assert_array_equal(got[mask], want[mask])
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))


def test_trace_rejects_mismatched_row_keys():
    trace = IterTrace(["k", "objective"])
    with pytest.raises(DimensionError):
        trace.append(k=1.0, wrong=2.0)


def _counted_problem():
    _, a, b, k = make_dense_problem(p=8, l=5, seed=19)
    design = CountingDenseOp(a)
    problem = SaddleProblem(quadratic_loss(design, b), linops.DenseOp(k),
                            prox.BoxClip(0.4, 5))
    design.forward = design.adjoint = 0
    return problem, design


@pytest.mark.parametrize("runner", ["run_fb", "run_fbf"])
def test_trace_rows_reuse_the_carried_design_image(runner):
    problem, design = _counted_problem()
    n = 12
    if runner == "run_fb":
        res = run_fb(problem, FbParams(kappa=0.5, max_iters=n, record_every=1))
    else:
        res = run_fbf(problem, alpha1=0.1, alpha2=0.05, max_iters=n, record_every=1)
    assert len(res.trace) == n
    # One product per iterate, start included, read by the gradient and
    # both objectives of the row; one adjoint per gradient.
    assert design.forward == n + 1
    assert design.adjoint == n
    assert res.trace.column("objective")[-1] == primal_objective(problem, res.x)


def test_a_relaxed_step_makes_the_products_of_its_constant():
    _, a, b, k = make_dense_problem(p=8, l=5, seed=19)
    design, coupling = CountingDenseOp(a), CountingDenseOp(k)
    problem = SaddleProblem(quadratic_loss(design, b), coupling, prox.BoxClip(0.4, 5))
    assert problem.k_norm > 0.0
    design.forward = design.adjoint = coupling.forward = coupling.adjoint = 0
    n = 12
    res = run_fb(problem, FbParams(kappa=0.5, max_iters=n, record_every=n))
    assert len(res.trace) == 1
    assert STEP_PRODUCTS == (2, 3)
    # The design image of the start, then two design products per step.
    assert (design.forward, design.adjoint) == (1 + n, n)
    assert design.forward + design.adjoint == 1 + STEP_PRODUCTS[0] * n
    # Three coupling products per step; the one trace row adds the K' of its
    # metric distance and the K of each of its two objectives.
    assert (coupling.forward, coupling.adjoint) == (n + 2, 2 * n + 1)
    assert coupling.forward + coupling.adjoint == STEP_PRODUCTS[1] * n + 3


def test_run_fb_ergodic_image_matches_direct_evaluation():
    problem, _ = _counted_problem()
    params = FbParams(kappa=0.5, relaxation=0.6, max_iters=30, record_every=1)
    res = run_fb(problem, params, x0=np.linspace(-1.0, 1.0, 8))
    info = validate_params(problem, params)
    x = np.linspace(-1.0, 1.0, 8)
    y = np.zeros(5)
    tilde_sum = np.zeros_like(x)
    direct = []
    for k in range(1, 31):
        xt, yt = fb_step(problem, 0.5, info["tau"], info["sigma"], x, y)
        tilde_sum += xt
        x, y = x + 0.6 * (xt - x), y + 0.6 * (yt - y)
        direct.append(primal_objective(problem, tilde_sum / k))
    np.testing.assert_allclose(res.trace.column("ergodic_objective"), direct,
                               rtol=1e-12, atol=0.0)


def test_run_fbf_ergodic_image_matches_direct_evaluation():
    problem, _ = _counted_problem()
    tau = 0.8 / (problem.L_f + problem.k_norm)
    res = run_fbf(problem, tau=tau, alpha1=0.2, alpha2=0.1, max_iters=30)
    x = np.zeros(8)
    y = np.zeros(5)
    x_prev, y_prev = x, y
    total = np.zeros_like(x)
    direct = []
    for k in range(1, 31):
        x_new, y_new = fbf_step(problem, tau, x, y, x_prev, y_prev, 0.2, 0.1)
        x_prev, y_prev, x, y = x, y, x_new, y_new
        total += x
        direct.append(primal_objective(problem, total / k))
    np.testing.assert_allclose(res.trace.column("ergodic_objective"), direct,
                               rtol=1e-12, atol=0.0)
