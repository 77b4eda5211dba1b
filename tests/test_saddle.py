"""Problem bundles: losses, objectives, saddle values, constructors."""

import numpy as np
import pytest
import scipy.sparse as sp

from pdsplit import linops, prox
from pdsplit.errors import DegenerateProblem, DimensionError
from pdsplit.fb import FbParams, run_fb
from pdsplit.saddle import (
    SaddleProblem,
    fixed_point_residual,
    latent_group_construct,
    primal_objective,
    quadratic_loss,
)

import oracles
from conftest import identity_lasso_problem, make_dense_problem


def test_quadratic_loss_identity_design():
    loss = quadratic_loss(np.eye(3), np.zeros(3))
    x = np.array([1.0, -2.0, 0.5])
    assert loss.value(x) == pytest.approx(0.5 * float(x @ x))
    np.testing.assert_allclose(loss.grad(x), x)
    assert 1.0 <= loss.L_f <= 1.1


def test_quadratic_loss_gradient_at_origin():
    loss = quadratic_loss(np.eye(2), np.array([1.0, 1.0]))
    np.testing.assert_allclose(loss.grad(np.zeros(2)), [-1.0, -1.0])


def test_quadratic_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    loss = quadratic_loss(a, b)
    x = rng.standard_normal(5)
    numeric = oracles.central_diff_grad(loss.value, x)
    np.testing.assert_allclose(loss.grad(x), numeric, rtol=1e-5, atol=1e-7)


def test_quadratic_loss_rejects_mismatched_response():
    with pytest.raises(DimensionError):
        quadratic_loss(np.eye(3), np.zeros(4))


def test_loss_reads_through_another_operator_for_the_same_matrix():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    loss = quadratic_loss(linops.DenseOp(a), b)
    split = linops.HStackOp(
        [linops.DenseOp(a[:, :2]), linops.SparseOp(sp.csr_array(a[:, 2:]))]
    )
    moved = loss.on(split)
    assert moved.A is split and moved.L_f == loss.L_f
    x = rng.standard_normal(5)
    assert moved.value(x) == pytest.approx(loss.value(x), rel=1e-12)
    np.testing.assert_allclose(moved.grad(x), a.T @ (a @ x - b), atol=1e-12)


def test_latent_loss_ignores_the_latent_block():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    problem = latent_group_construct([[0, 1], [1, 2, 3]], a, b, 1.0)
    p, q = 4, 5
    assert problem.loss.A.shape == (6, p + q)
    z = rng.standard_normal(p + q)
    assert problem.loss.value(z) == pytest.approx(
        0.5 * float(np.sum((a @ z[:p] - b) ** 2)), rel=1e-12
    )
    grad = problem.loss.grad(z)
    np.testing.assert_allclose(grad[:p], a.T @ (a @ z[:p] - b), atol=1e-12)
    np.testing.assert_array_equal(grad[p:], np.zeros(q))


@pytest.mark.parametrize("b", [[1e300, 2.3e300], [np.inf, 0.0], [np.nan, 1.0]])
def test_quadratic_loss_refuses_a_response_whose_loss_at_zero_is_not_finite(b):
    with pytest.raises(DegenerateProblem, match="not finite or too large"):
        quadratic_loss(np.eye(2), np.array(b))
    assert np.isfinite(quadratic_loss(np.eye(2), np.array([1e150, 1e150])).value(np.zeros(2)))


def test_problem_rejects_design_with_other_column_count():
    with pytest.raises(DimensionError):
        SaddleProblem(quadratic_loss(np.eye(3), np.zeros(3)), np.eye(2),
                      prox.BoxClip(1.0, 2))


def test_gradient_lipschitz_bound_holds_on_samples():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((9, 5))
    loss = quadratic_loss(a, rng.standard_normal(9))
    for _ in range(50):
        x1 = rng.standard_normal(5) * 2.0
        x2 = rng.standard_normal(5) * 2.0
        lhs = np.linalg.norm(loss.grad(x1) - loss.grad(x2))
        assert lhs <= loss.L_f * np.linalg.norm(x1 - x2) + 1e-10


def test_lagrangian_reduces_to_loss_at_zero_dual():
    rng = np.random.default_rng(24)
    problem = identity_lasso_problem(rng.standard_normal((6, 4)),
                                     rng.standard_normal(6), 1.0)
    x = rng.standard_normal(4)
    assert oracles.lagrangian(problem, x, np.zeros(4)) == pytest.approx(
        problem.loss.value(x)
    )


def test_lagrangian_is_minus_inf_outside_conjugate_domain():
    problem = identity_lasso_problem(np.eye(2), np.zeros(2), 1.0)
    assert oracles.lagrangian(problem, np.zeros(2), np.array([2.0, 0.0])) == -np.inf


def test_lagrangian_matches_direct_formula_for_linear_conjugate():
    rng = np.random.default_rng(25)
    shift = rng.standard_normal(3)
    k = rng.standard_normal((3, 4))
    problem = SaddleProblem(
        quadratic_loss(rng.standard_normal((5, 4)), rng.standard_normal(5)),
        k,
        prox.IdentityShift(3, shift),
    )
    x = rng.standard_normal(4)
    y = rng.standard_normal(3)
    expected = problem.loss.value(x) + float((k @ x) @ y) - float(shift @ y)
    assert oracles.lagrangian(problem, x, y) == pytest.approx(expected)


def test_weak_duality_on_sampled_pairs():
    rng = np.random.default_rng(26)
    problem = identity_lasso_problem(rng.standard_normal((6, 4)),
                                     rng.standard_normal(6), 0.8)
    for _ in range(30):
        x = rng.standard_normal(4) * 2.0
        y = problem.hconj.prox(rng.standard_normal(4) * 3.0, 1.0)
        assert oracles.lagrangian(problem, x, y) <= primal_objective(problem, x) + 1e-10


def test_primal_objective_lasso_at_origin():
    b = np.array([1.0, -2.0])
    problem = identity_lasso_problem(np.eye(2), b, 1.0)
    assert primal_objective(problem, np.zeros(2)) == pytest.approx(2.5)


def test_primal_objective_group_penalty_blockwise():
    rng = np.random.default_rng(27)
    a = rng.standard_normal((7, 6))
    b = rng.standard_normal(7)
    radii = np.array([0.5, 2.0])
    problem = SaddleProblem(
        quadratic_loss(a, b),
        linops.IdentityOp(6),
        prox.GroupL2Balls(prox.GroupPartition([3, 3]), radii),
    )
    x = rng.standard_normal(6)
    expected = (
        0.5 * np.linalg.norm(a @ x - b) ** 2
        + radii[0] * np.linalg.norm(x[:3])
        + radii[1] * np.linalg.norm(x[3:])
    )
    assert primal_objective(problem, x) == pytest.approx(expected)


def test_fixed_point_residual_vanishes_at_reference(tiny_lasso,
                                                    tiny_lasso_reference):
    ref = tiny_lasso_reference
    res = fixed_point_residual(tiny_lasso.problem, ref.x, ref.y, 0.5, 0.5)
    assert res <= 1e-6


def test_fixed_point_residual_positive_away_from_solution(tiny_lasso):
    p, l = tiny_lasso.problem.dims
    res = fixed_point_residual(tiny_lasso.problem, np.ones(p), np.zeros(l),
                               0.5, 0.5)
    assert res > 1e-3


def test_latent_group_adjoint_consistency():
    rng = np.random.default_rng(30)
    a = rng.standard_normal((8, 6))
    problem = latent_group_construct([[0, 1, 2], [2, 3, 4, 5]], a,
                                     rng.standard_normal(8), 1.0)
    p, l = problem.dims
    assert p == 6 + 7 and l == 7 + 6
    for _ in range(20):
        z = rng.standard_normal(p)
        w = rng.standard_normal(l)
        lhs = float(problem.K.apply(z) @ w)
        rhs = float(z @ problem.K.apply_adjoint(w))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_latent_matches_ordinary_group_lasso_without_overlap():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((8, 6))
    b = rng.standard_normal(8)
    groups = [[0, 1, 2], [3, 4, 5]]
    ordinary = SaddleProblem(
        quadratic_loss(a, b),
        linops.build_group_membership(groups, 6),
        prox.GroupL2Balls(prox.GroupPartition([3, 3]), 0.5),
    )
    res_o = run_fb(ordinary, FbParams(max_iters=20000), tol=1e-14)
    latent = latent_group_construct(groups, a, b, 0.5)
    res_l = run_fb(latent, FbParams(max_iters=60000), tol=1e-14)
    assert primal_objective(latent, res_l.x) == pytest.approx(
        primal_objective(ordinary, res_o.x), abs=1e-6
    )
    np.testing.assert_allclose(res_l.x[:6], res_o.x, atol=1e-6)


def test_latent_single_group_ties_latent_block_to_x():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((8, 6))
    problem = latent_group_construct([[0, 1, 2, 3, 4, 5]], a,
                                     rng.standard_normal(8), 0.7)
    res = run_fb(problem, FbParams(max_iters=60000), tol=1e-14)
    assert res.converged
    np.testing.assert_allclose(res.x[:6], res.x[6:], atol=1e-8)


def test_supplied_design_image_replaces_the_product():
    problem, a, _, _ = make_dense_problem(seed=23)
    x = np.random.default_rng(24).standard_normal(problem.dims[0])
    ax = problem.loss.A.apply(x)
    assert problem.loss.value(x, ax) == problem.loss.value(x)
    np.testing.assert_array_equal(problem.loss.grad(x, ax), problem.loss.grad(x))
    assert primal_objective(problem, x, ax) == primal_objective(problem, x)
    # The supplied image is what the loss reads.
    assert problem.loss.value(x, np.zeros_like(ax)) == problem.loss.value(np.zeros_like(x))


@pytest.mark.parametrize("make_loss", [quadratic_loss])
def test_loss_gradient_maps_each_column_of_a_block(make_loss):
    rng = np.random.default_rng(94)
    a = sp.random(80, 70, density=0.1, random_state=4, format="csr")
    b = (rng.standard_normal(80) > 0).astype(float)
    loss = make_loss(a, b)
    assert isinstance(loss.A, linops.SparseOp)
    x = rng.standard_normal((70, 3))
    want = oracles.column_by_column(loss.grad, x)
    assert loss.grad(x).tobytes() == np.ascontiguousarray(want).tobytes()
