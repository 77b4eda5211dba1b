"""Shared fixtures: tiny hand-built problems and the desk-scale benchmark."""

import numpy as np
import pytest

from pdsplit import bench
from pdsplit.linops import DenseOp, IdentityOp
from pdsplit.prox import BoxClip
from pdsplit.saddle import SaddleProblem, quadratic_loss


def make_dense_problem(p=6, l=4, lam=1.0, seed=7):
    """Random dense least-squares problem with a box-dual penalty.

    Small enough for dense-matrix oracles; the coupling operator is a random
    dense matrix so no step-equivalence test can pass by structural accident.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p + 2, p))
    b = rng.standard_normal(p + 2)
    k = rng.standard_normal((l, p))
    problem = SaddleProblem(
        quadratic_loss(DenseOp(a), b),
        DenseOp(k),
        BoxClip(lam, l),
    )
    return problem, a, b, k


@pytest.fixture
def dense_problem():
    return make_dense_problem()


@pytest.fixture(scope="session")
def tiny_lasso():
    """Identity-coupling lasso small enough for long oracle runs."""
    spec = bench.SyntheticSpec(kind="lasso", seed=3, n_samples=10, dim=5, lam=0.5)
    return bench.generate(spec)


@pytest.fixture(scope="session")
def desk_ogl():
    """Desk-scale overlapping-group problem shared by the rate tests."""
    spec = bench.SyntheticSpec(kind="overlapping-group-lasso", seed=11)
    return bench.generate(spec)


@pytest.fixture(scope="session")
def desk_ogl_reference(desk_ogl):
    """High-accuracy solution of the desk-scale problem (computed once)."""
    return bench.reference_solve(desk_ogl.problem)


@pytest.fixture(scope="session")
def tiny_lasso_reference(tiny_lasso):
    return bench.reference_solve(tiny_lasso.problem)


def identity_lasso_problem(a, b, lam):
    """Hand-built identity-coupling lasso used where a fixture is too big."""
    p = a.shape[1]
    return SaddleProblem(
        quadratic_loss(DenseOp(a), b),
        IdentityOp(p),
        BoxClip(lam, p),
    )
