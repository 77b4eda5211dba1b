"""Operator abstraction: dispatch, adjoints, norms, builders, triplet IO."""

import ast
import contextlib
import gc
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pdsplit import linops, textio
from pdsplit.errors import (
    ConstraintViolation,
    DegenerateProblem,
    DimensionError,
    IndexOutOfRange,
    NonConvergence,
    SelfLoop,
    UnknownKind,
)
from pdsplit.saddle import quadratic_loss

import oracles
from conftest import CountingDenseOp


def test_identity_apply_returns_input():
    op = linops.IdentityOp(3)
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(op.apply(v), v)
    np.testing.assert_array_equal(op.apply_adjoint(v), v)


def test_sparse_chain_difference_matches_dense_multiply():
    dense = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    op = linops.SparseOp(sp.csr_array(dense))
    v = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(op.apply(v), dense @ v)
    np.testing.assert_array_equal(op.apply(v), [-1.0, -2.0])


def test_dense_adjoint_matches_explicit_transpose():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 3))
    v = rng.standard_normal(2)
    np.testing.assert_allclose(linops.DenseOp(m).apply_adjoint(v), m.T @ v)


def test_vstack_adjoint_sums_block_adjoints():
    rng = np.random.default_rng(1)
    d = rng.standard_normal((3, 4))
    a = rng.standard_normal((5, 4))
    op = linops.VStackOp([linops.DenseOp(d), linops.DenseOp(a)])
    w = rng.standard_normal(8)
    np.testing.assert_allclose(
        op.apply_adjoint(w), d.T @ w[:3] + a.T @ w[3:], atol=1e-14
    )


def test_vstack_forward_concatenates_blocks():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((3, 4))
    a = rng.standard_normal((5, 4))
    op = linops.VStackOp([linops.DenseOp(d), linops.DenseOp(a)])
    v = rng.standard_normal(4)
    np.testing.assert_allclose(op.apply(v), np.concatenate([d @ v, a @ v]))


def test_hstack_forward_sums_column_segment_products():
    rng = np.random.default_rng(3)
    d1 = rng.standard_normal((5, 2))
    d2 = rng.standard_normal((5, 4))
    op = linops.HStackOp([linops.DenseOp(d1), linops.SparseOp(sp.csr_array(d2))])
    x = rng.standard_normal(6)
    np.testing.assert_allclose(op.apply(x), d1 @ x[:2] + d2 @ x[2:], atol=1e-14)
    w = rng.standard_normal(5)
    np.testing.assert_allclose(
        op.apply_adjoint(w), np.concatenate([d1.T @ w, d2.T @ w]), atol=1e-14
    )


def test_hstack_densify_equals_hstack_of_blocks():
    rng = np.random.default_rng(4)
    d1 = rng.standard_normal((3, 2))
    op = linops.HStackOp(
        [linops.DenseOp(d1), linops.ZeroOp((3, 2)), linops.IdentityOp(3)]
    )
    np.testing.assert_array_equal(
        oracles.densify(op), np.hstack([d1, np.zeros((3, 2)), np.eye(3)])
    )


def test_hstack_rejects_blocks_with_different_rows():
    with pytest.raises(DimensionError):
        linops.HStackOp([linops.IdentityOp(2), linops.IdentityOp(3)])
    with pytest.raises(DegenerateProblem):
        linops.HStackOp([])


def test_apply_rejects_wrong_length():
    with pytest.raises(DimensionError):
        linops.IdentityOp(3).apply(np.zeros(4))
    with pytest.raises(DimensionError):
        linops.DenseOp(np.ones((2, 3))).apply_adjoint(np.zeros(3))


def test_op_norm_identity_is_one():
    assert linops.op_norm(linops.IdentityOp(5)) == pytest.approx(1.0, rel=1e-9)


def test_op_norm_diagonal_picks_largest_entry():
    op = linops.DenseOp(np.diag([3.0, 1.0, 0.5]))
    assert linops.op_norm(op) == pytest.approx(3.0, rel=1e-9)


def test_op_norm_matches_gram_eigen_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    est = linops.op_norm(linops.DenseOp(a), tol=1e-10)
    assert est == pytest.approx(oracles.spectral_norm_gram(a), rel=1e-8)


def test_op_norm_zero_operator_is_zero():
    assert linops.op_norm(linops.ZeroOp((3, 2))) == 0.0


def test_op_norm_reports_non_convergence():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    with pytest.raises(NonConvergence):
        linops.op_norm(linops.DenseOp(a), tol=1e-14, max_iters=2)


@pytest.mark.parametrize("name, value", [
    ("tol", np.nan), ("tol", np.inf), ("tol", -1e-9), ("tol", True), ("tol", "a"),
    ("max_iters", 2.5), ("max_iters", -1), ("max_iters", True), ("max_iters", None),
])
def test_op_norm_refuses_a_bad_tolerance_or_budget(name, value):
    op = CountingDenseOp(np.random.default_rng(5).standard_normal((8, 8)))
    with pytest.raises(ConstraintViolation, match=name):
        linops.op_norm(op, **{name: value})
    assert (op.forward, op.adjoint) == (0, 0)


@pytest.fixture
def product_path(monkeypatch):
    """Never form a Gram matrix, so that ``op_norm`` makes one forward and
    one adjoint product per Lanczos step."""
    monkeypatch.setattr(linops, "_gram_switch", lambda op: math.inf)


@pytest.fixture
def lanczos_steps(monkeypatch):
    """A list that grows by one entry, the size of the projected matrix, at
    each Lanczos step of ``op_norm`` (one ``eigh`` per step)."""
    sizes = []
    eigh = np.linalg.eigh

    def recording_eigh(matrix):
        sizes.append(matrix.shape[0])
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return sizes


def test_op_norm_budget_counts_normal_products(product_path):
    op = CountingDenseOp(np.random.default_rng(5).standard_normal((8, 8)))
    with pytest.raises(NonConvergence):
        linops.op_norm(op, tol=1e-14, max_iters=3)
    assert (op.forward, op.adjoint) == (3, 3)


def test_op_norm_budget_counts_steps_on_both_sides_of_the_gram_switch(lanczos_steps):
    op = CountingDenseOp(np.random.default_rng(5).standard_normal((8, 8)))
    switch = linops._gram_switch(op)
    assert 0 < switch < 3
    with pytest.raises(NonConvergence):
        linops.op_norm(op, tol=1e-14, max_iters=3)
    assert len(lanczos_steps) == 3
    assert (op.forward, op.adjoint) == (switch, switch)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_op_norm_of_non_finite_operator_fails_at_first_product(bad):
    a = np.random.default_rng(9).standard_normal((12, 7))
    a[4, 2] = bad
    op = CountingDenseOp(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateProblem):
            linops.op_norm(op)
        assert (op.forward, op.adjoint) == (1, 1)
        with pytest.raises(DegenerateProblem):
            quadratic_loss(op, np.zeros(12))


@pytest.mark.parametrize("shape", [(1, 1), (1, 500), (500, 1), (8, 8), (7, 12)])
def test_a_dense_operator_makes_a_product_step_before_its_gram_matrix(shape):
    # The first product sees a non-finite entry, so no Gram matrix of one
    # is ever formed.
    assert linops._gram_switch(linops.DenseOp(np.ones(shape))) >= 1


@pytest.mark.parametrize("shape", [(90, 30), (30, 90), (1200, 300), (300, 1200)],
                         ids=["tall", "wide", "tall-large", "wide-large"])
def test_op_norm_gram_and_product_paths_agree(monkeypatch, lanczos_steps, shape):
    for seed in range(2):
        op = CountingDenseOp(np.random.default_rng(seed).standard_normal(shape))
        switch = linops._gram_switch(op)
        lanczos_steps.clear()
        default = linops.op_norm(op)
        # Lanczos outlasts the switch on a Gaussian operator: products up to
        # it, the Gram matrix after it.
        assert len(lanczos_steps) > switch
        assert (op.forward, op.adjoint) == (switch, switch)
        with monkeypatch.context() as patch:
            patch.setattr(linops, "_gram_switch", lambda op: math.inf)
            by_products = linops.op_norm(op)
        with monkeypatch.context() as patch:
            patch.setattr(linops, "_gram_switch", lambda op: 0)
            by_gram = linops.op_norm(op)
        assert by_gram == pytest.approx(by_products, rel=1e-12)
        assert default == pytest.approx(by_products, rel=1e-12)
        assert by_gram == pytest.approx(oracles.spectral_norm_gram(op.array), rel=1e-12)


def test_op_norm_that_settles_before_the_switch_forms_no_gram_matrix(lanczos_steps):
    # Entries uniform on [0, 1): the top singular value stands far above the
    # rest, and Lanczos settles in fewer steps than a Gram matrix pays for.
    op = CountingDenseOp(np.random.default_rng(0).random((300, 1200)))
    norm = linops.op_norm(op)
    assert len(lanczos_steps) < linops._gram_switch(op)
    assert (op.forward, op.adjoint) == (len(lanczos_steps), len(lanczos_steps))
    assert norm == pytest.approx(oracles.spectral_norm_gram(op.array), rel=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda a: linops.DenseOp(a[:, :30].T), id="dense-tall"),
        pytest.param(lambda a: linops.DenseOp(a), id="dense-wide"),
        pytest.param(lambda a: linops.SparseOp(sp.csr_array(a)), id="csr"),
        pytest.param(
            lambda a: linops.VStackOp([linops.DenseOp(a), linops.IdentityOp(45)]),
            id="vstack",
        ),
        pytest.param(
            lambda a: linops.HStackOp([linops.DenseOp(a), linops.IdentityOp(20)]),
            id="hstack",
        ),
    ],
)
def test_op_norm_matches_oracle_on_every_stack_and_storage(build):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((20, 45)) * (rng.random((20, 45)) < 0.5)
    op = build(a)
    expected = oracles.spectral_norm_gram(oracles.densify(op))
    assert linops.op_norm(op) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    exponent=st.integers(min_value=-8, max_value=4),
)
def test_op_norm_stays_below_and_safe_norm_above_oracle(rows, cols, seed, exponent):
    a = 10.0**exponent * np.random.default_rng(seed).standard_normal((rows, cols))
    op = linops.DenseOp(a)
    expected = oracles.spectral_norm_gram(a)
    assert linops.op_norm(op) <= expected * (1.0 + 1e-10)
    assert linops.safe_op_norm(op) >= expected


@pytest.mark.parametrize("scale", [1e-6, 1e4])
def test_op_norm_is_relative_at_every_scale(scale):
    a = scale * np.random.default_rng(0).standard_normal((50, 30))
    expected = oracles.spectral_norm_gram(a)
    assert linops.op_norm(linops.DenseOp(a)) == pytest.approx(expected, rel=1e-9)
    assert linops.safe_op_norm(linops.DenseOp(a)) >= expected


class CountingSparseOp(linops.SparseOp):
    """CSR operator that counts its forward and adjoint products."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.forward = self.adjoint = 0

    def apply(self, x):
        self.forward += 1
        return super().apply(x)

    def apply_adjoint(self, y):
        self.adjoint += 1
        return super().apply_adjoint(y)


def test_op_norm_separates_a_near_degenerate_top_pair_in_bounded_work(lanczos_steps):
    # Top pair 1e-8 apart over a dense spectrum reaching 1 - 1e-7: Lanczos
    # needs several hundred products, so the restarts must bound the size
    # of every tridiagonal eigenproblem, and the products stay well inside
    # the budget.
    gram = np.concatenate([[1.0, 1.0 - 1e-8], np.linspace(0.0, 1.0 - 1e-7, 3000)])
    op = CountingSparseOp(sp.diags_array(np.sqrt(gram)).tocsr())
    assert linops.op_norm(op) == pytest.approx(1.0, rel=1e-9)
    # About 550 normal-operator products, a tenth of the default budget.
    assert op.forward == op.adjoint <= 1000
    assert len(lanczos_steps) > linops.LANCZOS_BASIS
    assert max(lanczos_steps) == linops.LANCZOS_BASIS


def test_sparse_operator_shares_a_float64_csr_matrix():
    m = sp.random_array((50, 40), density=0.1, format="csr", rng=np.random.default_rng(3))
    assert np.shares_memory(linops.SparseOp(m).matrix.data, m.data)
    # Any other input is converted to float64.
    ints = sp.csr_array(np.eye(3, dtype=int))
    assert linops.SparseOp(ints).matrix.dtype == np.float64


def test_op_norm_repeats_bitwise():
    op = linops.DenseOp(np.random.default_rng(12).standard_normal((40, 90)))
    assert linops.op_norm(op) == linops.op_norm(op)


# Normal-operator products that power iteration (tol 1e-9) spent on the
# 300 x 1200 Gaussian designs of seeds 0 to 15 before Lanczos replaced it.
POWER_ITERATION_PRODUCTS = [
    207, 217, 215, 972, 275, 235, 1251, 379,
    1678, 2162, 872, 242, 852, 727, 1811, 348,
]


def test_op_norm_spends_a_fifth_of_the_power_iteration_products(product_path):
    spent = []
    for seed in range(len(POWER_ITERATION_PRODUCTS)):
        op = CountingDenseOp(np.random.default_rng(seed).standard_normal((300, 1200)))
        linops.op_norm(op)
        assert op.forward == op.adjoint
        spent.append(op.adjoint)
    assert 5 * sum(spent) <= sum(POWER_ITERATION_PRODUCTS)


def test_op_norm_spends_a_fifth_of_the_power_iteration_products_with_a_gram_switch(lanczos_steps):
    spent = []
    for seed in range(len(POWER_ITERATION_PRODUCTS)):
        op = CountingDenseOp(np.random.default_rng(seed).standard_normal((300, 1200)))
        before = len(lanczos_steps)
        linops.op_norm(op)
        switch = linops._gram_switch(op)
        assert (op.forward, op.adjoint) == (switch, switch)
        spent.append(len(lanczos_steps) - before)
    assert 5 * sum(spent) <= sum(POWER_ITERATION_PRODUCTS)


def test_norm_estimates_import_no_scipy_linear_algebra():
    script = (
        "import sys\n"
        "from pdsplit import bench\n"
        "spec = bench.SyntheticSpec(kind='overlapping-group-lasso', seed=1)\n"
        "assert bench.generate(spec).problem.k_norm > 0.0\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg')"
        " if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(linops.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )
    assert out.stdout.strip() == "[]"


def test_vstack_norm_bounded_by_stacked_squares():
    rng = np.random.default_rng(6)
    d = rng.standard_normal((3, 4))
    a = rng.standard_normal((5, 4))
    stacked = linops.op_norm(
        linops.VStackOp([linops.DenseOp(d), linops.DenseOp(a)]), tol=1e-10
    )
    parts = (
        linops.op_norm(linops.DenseOp(d), tol=1e-10) ** 2
        + linops.op_norm(linops.DenseOp(a), tol=1e-10) ** 2
    )
    assert stacked**2 <= parts * (1.0 + 1e-9)


def test_adjoint_consistency_on_random_pairs():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((4, 6))
    ops = [
        linops.DenseOp(mat),
        linops.SparseOp(sp.csr_array(mat)),
        linops.VStackOp([linops.DenseOp(mat), linops.IdentityOp(6)]),
        linops.HStackOp([linops.DenseOp(mat), linops.IdentityOp(4)]),
    ]
    for op in ops:
        rows, cols = op.shape
        for _ in range(100):
            u = rng.standard_normal(cols)
            v = rng.standard_normal(rows)
            lhs = float(op.apply(u) @ v)
            rhs = float(u @ op.apply_adjoint(v))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_no_package_module_defines_or_calls_densify():
    """No solver path materializes an operator: ``densify`` is a test
    oracle, and no module of the package defines, imports or calls it."""
    package = pathlib.Path(linops.__file__).parent
    users = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            elif isinstance(node, ast.ImportFrom):
                name = "densify" if any(a.name == "densify" for a in node.names) else ""
            elif isinstance(node, ast.FunctionDef):
                name = node.name
            else:
                continue
            if name == "densify":
                users.add(path.name)
    assert users == set(), users


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_densify_round_trips_apply(rows, cols, seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rows, cols))
    op = linops.matrix_operator(sp.csr_array(mat))
    v = rng.standard_normal(cols)
    np.testing.assert_allclose(oracles.densify(op) @ v, op.apply(v), atol=1e-12)


def test_matrix_operator_keeps_arrays_dense_and_large_sparse_as_csr():
    big = np.random.default_rng(13).standard_normal((100, 200))
    op = linops.matrix_operator(big)
    assert isinstance(op, linops.DenseOp)
    np.testing.assert_array_equal(op.array, big)
    assert isinstance(linops.matrix_operator(sp.csr_array(big)), linops.SparseOp)
    assert isinstance(linops.matrix_operator(sp.csr_array(big[:10])), linops.SparseOp)
    small = linops.matrix_operator(sp.csr_array(big[:10, :20]))
    assert isinstance(small, linops.DenseOp)
    np.testing.assert_array_equal(small.array, big[:10, :20])
    with pytest.raises(DimensionError):
        linops.matrix_operator(np.zeros(3))


def test_group_membership_marks_overlap_column_twice():
    op = linops.build_group_membership([[0, 1, 2], [2, 3, 4]], 5)
    dense = oracles.densify(op)
    assert dense.shape == (6, 5)
    assert dense.sum(axis=1).tolist() == [1.0] * 6
    assert dense[:, 2].sum() == 2.0


def test_group_membership_single_group_is_identity():
    op = linops.build_group_membership([list(range(4))], 4)
    np.testing.assert_array_equal(oracles.densify(op), np.eye(4))


def test_group_membership_chained_grid_shape_and_sums():
    groups = oracles.chained_group_indices(2, 100)
    op = linops.build_group_membership(groups, 190)
    dense = oracles.densify(op)
    assert dense.shape == (200, 190)
    assert set(dense.sum(axis=1).tolist()) == {1.0}
    assert set(dense.sum(axis=0).tolist()) == {1.0, 2.0}


def test_group_membership_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        linops.build_group_membership([[0, 5]], 5)


def test_group_membership_rejects_empty_input():
    with pytest.raises(DegenerateProblem):
        linops.build_group_membership([], 5)
    with pytest.raises(DegenerateProblem):
        linops.build_group_membership([[0], []], 5)


def test_graph_difference_single_edge():
    op = linops.build_graph_difference([(0, 1)], 2)
    np.testing.assert_array_equal(oracles.densify(op), [[1.0, -1.0]])


def test_graph_difference_kills_constant_vectors():
    op = linops.build_graph_difference([(0, 1), (1, 2)], 3)
    np.testing.assert_array_equal(op.apply(np.full(3, 4.2)), np.zeros(2))


def test_graph_difference_rejects_self_loop_and_bad_index():
    with pytest.raises(SelfLoop):
        linops.build_graph_difference([(1, 1)], 3)
    with pytest.raises(IndexOutOfRange):
        linops.build_graph_difference([(0, 3)], 3)


def test_graph_difference_rejects_fractional_indices():
    # Truncating (0.5, 1.7) would silently build the edge (0, 1).
    with pytest.raises(IndexOutOfRange, match="edge 0 holds a non-integer"):
        linops.build_graph_difference([(0.5, 1.7)], 3)
    with pytest.raises(IndexOutOfRange, match="edge 1 holds a non-integer"):
        linops.build_graph_difference([(0, 1), (1, 2.0)], 3)
    with pytest.raises(IndexOutOfRange, match="edge 0 holds a non-integer"):
        linops.build_graph_difference(np.array([[0.0, 1.0]]), 3)


def test_graph_difference_rejects_booleans_and_strings_as_indices():
    with pytest.raises(IndexOutOfRange, match="edge 0 holds a non-integer"):
        linops.build_graph_difference([(True, False)], 3)
    with pytest.raises(IndexOutOfRange, match="edge 1 holds a non-integer"):
        linops.build_graph_difference([(0, 1), (1, True)], 3)
    with pytest.raises(IndexOutOfRange, match="edge 0 holds a non-integer"):
        linops.build_graph_difference([("0", "1")], 3)


def test_graph_difference_rejects_input_that_is_not_pairs():
    for edges in ([(0, 1, 2)], [(0, 1), (1, 2, 0)], [0, 1], [()], np.zeros((2, 3), int)):
        with pytest.raises(DimensionError, match="pairs of node indices"):
            linops.build_graph_difference(edges, 3)
    with pytest.raises(DegenerateProblem):
        linops.build_graph_difference(np.empty((0, 2), dtype=int), 3)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
def test_graph_difference_takes_any_integer_dtype(dtype):
    edges = [(0, 1), (2, 1), (3, 0)] * 30
    want = linops.build_graph_difference(edges, 70).matrix
    for given in (np.array(edges, dtype=dtype), [tuple(map(dtype, e)) for e in edges],
                  [(dtype(i), int(j)) for i, j in edges]):
        got = linops.build_graph_difference(given, 70).matrix
        for name in ("indices", "indptr", "data"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_graph_difference_names_the_first_bad_edge_self_loop_first():
    with pytest.raises(SelfLoop, match="edge 2 joins node 1 to itself"):
        linops.build_graph_difference([(0, 1), (1, 2), (1, 1), (0, 5)], 3)
    with pytest.raises(IndexOutOfRange, match=r"edge 1 references a node outside \[0, 3\)"):
        linops.build_graph_difference([(0, 1), (-1, 2), (1, 1)], 3)
    with pytest.raises(SelfLoop, match="edge 0 joins node 7 to itself"):
        linops.build_graph_difference([(7, 7), (0, 1)], 3)
    with pytest.raises(IndexOutOfRange, match="edge 0 references"):
        linops.build_graph_difference([(0, 2**70)], 3)


def test_graph_difference_csr_layout_is_the_coo_build():
    rng = np.random.default_rng(17)
    tail, head = rng.integers(0, 90, 500), rng.integers(0, 90, 500)
    keep = tail != head
    edges = np.stack([tail[keep], head[keep]], axis=1)
    got = linops.build_graph_difference(edges, 90).matrix
    want = oracles.graph_difference_coo(edges.tolist(), 90)
    np.testing.assert_array_equal(got.indptr, np.arange(0, 2 * len(edges) + 1, 2))
    for name in ("indices", "indptr", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_group_membership_rejects_fractional_indices():
    # Truncating [0.5, 1.7] would silently select [0, 1].
    with pytest.raises(IndexOutOfRange, match="group 0 holds a non-integer"):
        linops.build_group_membership([[0.5, 1.7]], 3)
    with pytest.raises(IndexOutOfRange, match="group 1 holds a non-integer"):
        linops.build_group_membership([[0, 1], [1, 2.0]], 3)


def test_group_membership_rejects_booleans_and_strings_as_indices():
    with pytest.raises(IndexOutOfRange, match="group 0 holds a non-integer"):
        linops.build_group_membership([[True, False]], 3)
    with pytest.raises(IndexOutOfRange, match="group 1 holds a non-integer"):
        linops.build_group_membership([[0], ["1"]], 3)


def test_group_membership_rejects_groups_that_are_not_flat():
    with pytest.raises(DimensionError, match="group 1 is not a flat sequence"):
        linops.build_group_membership([[0, 1], [[1, 2]]], 3)
    with pytest.raises(DimensionError, match="group 0 is not a flat sequence"):
        linops.build_group_membership([0, 1], 3)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
def test_group_membership_takes_any_integer_dtype(dtype):
    groups = [list(range(j, j + 30)) for j in range(0, 60, 20)]
    want = linops.build_group_membership(groups, 90).matrix
    for given in ([np.array(g, dtype=dtype) for g in groups],
                  [[dtype(i) for i in g[:-1]] + [g[-1]] for g in groups]):
        got = linops.build_group_membership(given, 90).matrix
        for name in ("indices", "indptr", "data"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_triplet_round_trip_preserves_matrix(tmp_path):
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.4)
    mat = sp.csr_array(dense)
    path = tmp_path / "triplets.txt"
    textio.write_triplets(str(path), mat)
    back = textio.read_triplets(str(path))
    assert (back != mat).nnz == 0


def test_triplet_reader_rejects_out_of_shape_entry(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 1\n3 1 5.0\n")
    with pytest.raises(DimensionError):
        textio.read_triplets(str(path))


def test_vector_round_trip(tmp_path):
    path = tmp_path / "vec.txt"
    vec = np.array([1.5, -2.25, 1e-17, 3.0])
    textio.write_vector(str(path), vec)
    np.testing.assert_array_equal(textio.read_vector(str(path)), vec)


# The operator class of each kind that the tests below build.
_CLASSES = {"dense": linops.DenseOp, "sparse-csr": linops.SparseOp,
            "identity": linops.IdentityOp, "zero": linops.ZeroOp,
            "vstack": linops.VStackOp, "hstack": linops.HStackOp}


def _block_operators():
    """One operator of every kind; the stacks mix dense and CSR blocks."""
    rng = np.random.default_rng(90)
    csr = sp.csr_array(sp.random(70, 80, density=0.1, random_state=3))
    return {
        "dense": linops.DenseOp(rng.standard_normal((70, 80))),
        "sparse-csr": linops.SparseOp(csr),
        "identity": linops.IdentityOp(80),
        "zero": linops.ZeroOp((70, 80)),
        "vstack": linops.VStackOp(
            [linops.SparseOp(csr), linops.IdentityOp(80), linops.ZeroOp((5, 80)),
             linops.DenseOp(rng.standard_normal((15, 80)))]
        ),
        "hstack": linops.HStackOp(
            [linops.SparseOp(csr[:, :30]), linops.ZeroOp((70, 20)),
             linops.SparseOp(csr[:, 30:]), linops.DenseOp(rng.standard_normal((70, 40)))]
        ),
    }


@pytest.mark.parametrize("kind", sorted(_block_operators()))
@pytest.mark.parametrize("width", [1, 4])
def test_block_products_map_each_column(kind, width):
    op = _block_operators()[kind]
    assert isinstance(op, _CLASSES[kind])
    rng = np.random.default_rng(91)
    rows, cols = op.shape
    x = rng.standard_normal((cols, width))
    y = rng.standard_normal((rows, width))
    for block, product in ((x, op.apply), (y, op.apply_adjoint)):
        got = product(block)
        want = oracles.column_by_column(product, block)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("kind", sorted(_block_operators()) + ["nested"])
def test_to_sparse_stores_the_nonzeros_of_densify(kind):
    ops = _block_operators()
    if kind == "nested":
        # A stack in a stack, beside a CSR block with unsorted columns, a
        # duplicate entry and an explicit zero.
        odd = sp.csr_array((np.array([0.0, 2.0, 1.0, 1.5]), np.array([1, 0, 2, 2]),
                            np.r_[0, 2, 4, np.full(168, 4)]), shape=(170, 3))
        op = linops.HStackOp([ops["vstack"], linops.SparseOp(odd)])
    else:
        op = ops[kind]
    want = sp.csr_array(oracles.densify(op))
    got = linops.to_sparse(op)
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_to_sparse_of_an_unknown_operator_class_names_it():
    class Doubling(linops.LinearOperator):
        def apply(self, x):
            return 2.0 * x

    with pytest.raises(UnknownKind, match="Doubling"):
        linops.to_sparse(Doubling((3, 3)))


def _operator_of_kind(kind, rows, cols, rng):
    """A random operator of ``kind`` with the given shape (square for identity)."""
    dense = lambda r, c: linops.DenseOp(rng.standard_normal((r, c)))
    csr = lambda r, c: linops.SparseOp(
        sp.random(r, c, density=0.3, random_state=rng, data_rvs=rng.standard_normal))
    if kind == "dense":
        return dense(rows, cols)
    if kind == "sparse-csr":
        return csr(rows, cols)
    if kind == "identity":
        return linops.IdentityOp(cols)
    if kind == "zero":
        return linops.ZeroOp((rows, cols))
    if kind == "vstack":
        return linops.VStackOp([dense(rows, cols), csr(2, cols), linops.IdentityOp(cols)])
    return linops.HStackOp([dense(rows, cols), csr(rows, 3), linops.ZeroOp((rows, 2))])


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(_block_operators())),
    rows=st.integers(1, 45),
    cols=st.integers(1, 45),
    width=st.sampled_from([2, 5, 172]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_products_are_column_exact(kind, rows, cols, width, seed):
    rng = np.random.default_rng(seed)
    op = _operator_of_kind(kind, rows, cols, rng)
    assert isinstance(op, _CLASSES[kind])
    for length, product in ((op.shape[1], op.apply), (op.shape[0], op.apply_adjoint)):
        block = rng.standard_normal((length, width))
        got = product(block)
        for j in range(width):
            assert got[:, j].tobytes() == product(block[:, j].copy()).tobytes()


@pytest.mark.parametrize("width", [2, 5, 172])
def test_dense_adjoint_of_a_wide_design_is_column_exact(width):
    # The latent problem's 15 x 40 design: its adjoint is the shape where a
    # product over strided columns rounds differently.
    rng = np.random.default_rng(width)
    op = linops.DenseOp(rng.standard_normal((15, 40)))
    block = rng.standard_normal((15, width))
    got = op.apply_adjoint(block)
    for j in range(width):
        assert got[:, j].tobytes() == (op.array.T @ block[:, j].copy()).tobytes()


def test_block_products_reject_wrong_rows_and_rank():
    op = linops.DenseOp(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        op.apply(np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        op.apply_adjoint(np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        op.apply(np.zeros((3, 2, 2)))


@contextlib.contextmanager
def _split_products():
    """Every dense product of 16 rows or more splits, as on two CPUs.

    Yields the list of split products made, one entry each.
    """
    splits = []
    split = linops._Worker.split

    def counted(worker, *args):
        splits.append(threading.current_thread().name)
        return split(worker, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linops, "SPLIT_MIN_ENTRIES", 1)
        patch.setattr(linops, "MATMUL_LOCKED_OUTPUT", 0)
        patch.setattr(linops, "_cpu_count", lambda: 2)
        patch.setattr(linops._Worker, "split", counted)
        yield splits


def _one_thread_columns(matrix, block):
    """``matrix @ v`` for a vector, one column at a time for a block."""
    if block.ndim == 1:
        return matrix @ block
    return oracles.column_by_column(matrix.__matmul__, block)


_SIDES = st.integers(2, 9).map(lambda k: 8 * k) | st.integers(16, 80)


@settings(max_examples=80, deadline=None)
@given(rows=_SIDES, cols=_SIDES, order=st.sampled_from("CF"),
       width=st.sampled_from([None, 1, 2, 5]), seed=st.integers(0, 2**32 - 1))
def test_split_products_are_bitwise_the_one_thread_products(rows, cols, order, width, seed):
    rng = np.random.default_rng(seed)
    array = np.asarray(rng.standard_normal((rows, cols)), order=order)
    op = linops.DenseOp(array)
    with _split_products() as splits:
        for matrix, product in ((array, op.apply), (array.T, op.apply_adjoint)):
            shape = matrix.shape[1] if width is None else (matrix.shape[1], width)
            block = rng.standard_normal(shape)
            got = product(block)
            want = _one_thread_columns(matrix, block)
            assert got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    assert len(splits) == 2


def test_split_products_from_many_threads_at_once_stay_bitwise():
    # More threads than cores, switching as often as the interpreter lets
    # them: a product that finds the worker busy makes its rows alone.
    rng = np.random.default_rng(41)
    ops = [linops.DenseOp(rng.standard_normal((72, 56))) for _ in range(4)]
    inputs = [rng.standard_normal(56), rng.standard_normal((56, 3))] * 2
    wants = [_one_thread_columns(op.array, v) for op, v in zip(ops, inputs)]
    right = [0] * 4

    def work(i):
        for _ in range(300):
            right[i] += ops[i].apply(inputs[i]).tobytes() == wants[i].tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _split_products() as splits:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert right == [300] * 4
    assert splits


def test_a_product_that_fails_in_the_worker_raises_in_the_caller():
    rng = np.random.default_rng(42)
    op = linops.DenseOp(rng.standard_normal((40, 30)))
    x = rng.standard_normal(30)
    failed_in = []

    def lower_rows_fail(matrix, operand):
        # The calling thread makes the upper 40 // 16 * 8 = 16 rows.
        if matrix.shape[0] != 16:
            failed_in.append(threading.current_thread().name)
            raise FloatingPointError("lower rows")
        return np.dot(matrix, operand)

    with _split_products() as splits:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linops, "_dot_rows", lower_rows_fail)
            with pytest.raises(FloatingPointError, match="lower rows"):
                op.apply(x)
        assert op.apply(x).tobytes() == (op.array @ x).tobytes()
    assert failed_in == ["pdsplit-products"]
    assert len(splits) == 2


def test_the_worker_keeps_no_operand_or_result_after_a_product():
    rng = np.random.default_rng(43)
    array = rng.standard_normal((48, 40))
    op = linops.DenseOp(array)
    halves = []

    def recorded(matrix, operand):
        out = np.dot(matrix, operand)
        halves.append(weakref.ref(out))
        return out

    with _split_products() as splits:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linops, "_dot_rows", recorded)
            image = op.apply(rng.standard_normal(40))
    operands = [weakref.ref(array), weakref.ref(image)]
    del array, op, image
    gc.collect()
    assert len(splits) == 1 and len(halves) == 2
    assert [ref() for ref in halves + operands] == [None] * 4


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_split_products_on_a_worker_of_its_own():
    rng = np.random.default_rng(44)
    op = linops.DenseOp(rng.standard_normal((64, 48)))
    x = rng.standard_normal(48)
    want = (op.array @ x).tobytes()
    with _split_products() as splits:
        assert op.apply(x).tobytes() == want
        with warnings.catch_warnings():
            # Python 3.12 and later warn on a fork of a process with threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if op.apply(x).tobytes() == want else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's split product did not finish")
            time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
    assert len(splits) == 1


def test_only_linops_imports_threads_or_processes():
    package = pathlib.Path(linops.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "_thread", "concurrent",
                                          "multiprocessing") for name in names):
                importers.add(path.name)
    assert importers == {"linops.py"}
