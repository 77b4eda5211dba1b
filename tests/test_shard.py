"""Sharded run: agreement with the plain run, ledger counts, refusals."""

import numpy as np
import pytest

from pdsplit import bench, fb, linops
from pdsplit.errors import ConstraintViolation, TooManyWorkers
from pdsplit.fb import FbParams, FbResult, RunResult, run_fb
from pdsplit.prox import BoxClip
from pdsplit.saddle import (
    SaddleProblem,
    latent_group_construct,
    quadratic_loss,
)
from pdsplit.shard import ShardPlan, ShardResult, partition_problem, run_fb_sharded

import oracles


@pytest.fixture(scope="module")
def small_ggfl():
    """30-feature graph-guided fused lasso with 40 samples and 110 edges."""
    spec = bench.SyntheticSpec(kind="graph-guided-fused-lasso", seed=0,
                               subnet_size=5, n_subnets=6, n_active=2,
                               n_samples=40)
    return bench.generate(spec).problem


def _rel_dist(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _assert_agrees_with_plain_run(problem, workers):
    params = FbParams(kappa=0.5, max_iters=200, record_every=50)
    plain = run_fb(problem, params)
    sharded = run_fb_sharded(problem, params, workers)
    assert sharded.iterations == plain.iterations == 200
    assert _rel_dist(sharded.x, plain.x) <= 1e-12
    assert _rel_dist(sharded.y, plain.y) <= 1e-12
    np.testing.assert_array_equal(sharded.trace.column("k"),
                                  plain.trace.column("k"))
    np.testing.assert_allclose(sharded.trace.column("objective"),
                               plain.trace.column("objective"), rtol=1e-12)
    for name in ("x_tilde", "y_tilde"):
        assert getattr(sharded, name).tobytes() == getattr(plain, name).tobytes(), name
    for name in ("tau", "sigma", "rho", "converged"):
        assert getattr(sharded, name) == getattr(plain, name), name
    return sharded


@pytest.mark.parametrize("workers", [1, 3, 7])
def test_sharded_run_agrees_with_plain_run(small_ggfl, workers):
    _assert_agrees_with_plain_run(small_ggfl, workers)


def _latent_problem():
    rng = np.random.default_rng(61)
    a = rng.standard_normal((12, 8))
    groups = [[0, 1, 2, 3], [3, 4, 5], [5, 6, 7]]
    return latent_group_construct(groups, a, rng.standard_normal(12), 0.5)


def test_a_sharded_run_returns_a_run_result_and_its_layout_is_a_plan(small_ggfl):
    res = run_fb_sharded(small_ggfl, FbParams(max_iters=3), 3)
    assert type(res) is ShardResult and isinstance(res, FbResult)
    assert isinstance(res, RunResult)
    assert type(partition_problem(small_ggfl, 3)) is ShardPlan


def test_a_sharded_run_never_calls_the_public_plain_runner(small_ggfl, monkeypatch):
    # A tracer patches ``fb.run_fb``; a sharded run through it would count its
    # steps twice.
    def refuse(*args, **kwargs):
        raise AssertionError("run_fb_sharded called fb.run_fb")

    monkeypatch.setattr(fb, "run_fb", refuse)
    res = run_fb_sharded(small_ggfl, FbParams(max_iters=12), 3)
    assert res.iterations == len(res.ledger) == 12


def test_latent_group_problem_shards():
    res = _assert_agrees_with_plain_run(_latent_problem(), 3)
    # The loss design is A padded with zero columns: its blocks keep all
    # 12 rows, so each of the two loss products moves 2 * 12 entries.
    assert np.all(res.ledger.column("loss_comm") == 2 * 2 * 12)


def test_partitioning_a_stacked_coupling_densifies_nothing():
    # The package has no densify (test_linops checks), so the cross table
    # comes from the stack's own CSR blocks.
    rng = np.random.default_rng(63)
    diff = linops.build_graph_difference([(i, i + 1) for i in range(8)], 9)
    coupling = linops.HStackOp([diff, linops.IdentityOp(8)])
    problem = SaddleProblem(quadratic_loss(rng.standard_normal((12, 17)),
                                           rng.standard_normal(12)),
                            coupling, BoxClip(0.3, 8))
    k_dense = oracles.densify(problem.K)
    plan = partition_problem(problem, 3)
    rows = oracles.cross_block_rows(k_dense, plan.row_offsets, plan.col_offsets)
    np.testing.assert_array_equal(plan.cross_table, rows)


def test_ledger_rows_count_one_step_of_traffic(small_ggfl):
    m = 3
    plan = partition_problem(small_ggfl, m)
    p, l = small_ggfl.dims
    np.testing.assert_array_equal(np.diff(plan.col_offsets),
                                  oracles.balanced_sizes(p, m))
    np.testing.assert_array_equal(np.diff(plan.row_offsets),
                                  oracles.balanced_sizes(l, m))
    res = run_fb_sharded(small_ggfl, FbParams(max_iters=12, record_every=1), m)
    ledger = res.ledger
    np.testing.assert_array_equal(ledger.column("iter"), np.arange(1, 13))
    # One step: a gradient (A x, then A' r) and three penalty products
    # (K' y, K w, K' y_new).
    loss = 2 * (m - 1) * plan.n
    penalty = 3 * plan.cross_total
    assert (loss, penalty) == (160, 339)
    assert np.all(ledger.column("loss_comm") == loss)
    assert np.all(ledger.column("penalty_comm") == penalty)
    assert np.all(ledger.column("total_comm") == loss + penalty)


def test_trace_rows_add_nothing_to_the_ledger(small_ggfl):
    every = run_fb_sharded(small_ggfl, FbParams(max_iters=12, record_every=1), 3)
    final = run_fb_sharded(small_ggfl, FbParams(max_iters=12, record_every=12), 3)
    assert len(every.trace) == 12 and len(final.trace) == 1
    for col in ("iter", "loss_comm", "penalty_comm", "total_comm"):
        np.testing.assert_array_equal(every.ledger.column(col),
                                      final.ledger.column(col))


def test_sharded_run_stops_at_tolerance(small_ggfl):
    params = FbParams(max_iters=20000, record_every=20000)
    res = run_fb_sharded(small_ggfl, params, 3, tol=1e-6)
    assert res.converged and res.iterations < 20000
    assert res.trace.column("residual")[-1] <= 1e-6
    assert len(res.ledger.column("iter")) == res.iterations


def test_more_workers_than_features_is_refused(small_ggfl):
    with pytest.raises(TooManyWorkers):
        run_fb_sharded(small_ggfl, FbParams(max_iters=1), 31)


@pytest.mark.parametrize("m_workers", [2.5, 2.0, True, "2"])
def test_worker_count_must_be_an_integer(small_ggfl, m_workers):
    with pytest.raises(ConstraintViolation, match="worker count"):
        run_fb_sharded(small_ggfl, FbParams(max_iters=1), m_workers)
    assert partition_problem(small_ggfl, np.int64(2)).m == 2


def test_hand_built_problem_reads_its_design_from_the_loss():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((8, 6))
    problem = SaddleProblem(
        quadratic_loss(a, rng.standard_normal(8)),
        rng.standard_normal((4, 6)),
        BoxClip(1.0, 4),
    )
    _assert_agrees_with_plain_run(problem, 2)
    assert partition_problem(problem, 2).n == 8


@pytest.mark.parametrize("workers", [1, 3, 7])
def test_cross_counts_are_rows_of_off_diagonal_blocks(small_ggfl, workers):
    plan = partition_problem(small_ggfl, workers)
    k_dense = oracles.densify(small_ggfl.K)
    rows = oracles.cross_block_rows(k_dense, plan.row_offsets, plan.col_offsets)
    np.testing.assert_array_equal(plan.cross_table, rows)
    assert plan.cross_total == rows.sum() - np.trace(rows)
    entries = oracles.cross_block_nonzeros(k_dense, plan.row_offsets,
                                           plan.col_offsets)
    assert plan.cross_total <= entries


def _hstack_design_problem():
    rng = np.random.default_rng(64)
    a = rng.standard_normal((9, 5))
    design = linops.HStackOp([linops.DenseOp(a[:, :2]), linops.DenseOp(a[:, 2:])])
    return SaddleProblem(quadratic_loss(design, rng.standard_normal(9)),
                         linops.IdentityOp(5), BoxClip(0.5, 5))


def test_hstack_design_problem_shards():
    _assert_agrees_with_plain_run(_hstack_design_problem(), 2)


def _assert_bitwise_plain_run(problem, workers):
    params = FbParams(kappa=0.5, max_iters=200, record_every=7)
    plain = run_fb(problem, params)
    sharded = run_fb_sharded(problem, params, workers)
    np.testing.assert_array_equal(sharded.x, plain.x)
    np.testing.assert_array_equal(sharded.y, plain.y)
    assert sharded.trace.columns == plain.trace.columns
    for col in plain.trace.columns:
        if col != "seconds":
            np.testing.assert_array_equal(sharded.trace.column(col),
                                          plain.trace.column(col))


@pytest.mark.parametrize("workers", [1, 3, 7])
def test_sharded_run_is_bitwise_the_plain_run(small_ggfl, workers):
    _assert_bitwise_plain_run(small_ggfl, workers)


@pytest.mark.parametrize("build, workers",
                         [(_latent_problem, 3), (_hstack_design_problem, 2)])
def test_other_design_kinds_run_bitwise_the_plain_run(build, workers):
    _assert_bitwise_plain_run(build(), workers)

