"""Shared fixtures: tiny hand-built problems and a counting operator."""

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


class CountingDenseOp(DenseOp):
    """Dense operator that counts its forward and adjoint products."""

    def __init__(self, array):
        super().__init__(array)
        self.forward = self.adjoint = 0

    def apply(self, x):
        self.forward += 1
        return super().apply(x)

    def apply_adjoint(self, y):
        self.adjoint += 1
        return super().apply_adjoint(y)


def counted_coupling_problem():
    """Dense problem whose coupling ``K`` counts its products.

    The cached coupling norm is computed first, so the counters start at
    zero for the solver that runs next.
    """
    _, a, b, k = make_dense_problem(p=8, l=5, seed=19)
    coupling = CountingDenseOp(k)
    problem = SaddleProblem(quadratic_loss(DenseOp(a), b), coupling, BoxClip(0.4, 5))
    assert problem.k_norm > 0.0
    coupling.forward = coupling.adjoint = 0
    return problem, coupling


@pytest.fixture
def dense_problem():
    return make_dense_problem()


@pytest.fixture(scope="session")
def tiny_lasso():
    """Identity-coupling lasso small enough for long oracle runs."""
    spec = bench.SyntheticSpec(kind="lasso", seed=3, n_samples=10, dim=5, lam=0.5)
    return bench.generate(spec)


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
