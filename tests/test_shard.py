"""Sharded run: agreement with the plain run, ledger counts, refusals."""

import numpy as np
import pytest

from pdsplit import bench
from pdsplit.errors import DegenerateProblem, TooManyWorkers
from pdsplit.fb import FbParams, run_fb
from pdsplit.prox import BoxClip
from pdsplit.saddle import SaddleProblem, quadratic_loss
from pdsplit.shard import partition_problem, run_fb_sharded

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


@pytest.mark.parametrize("workers", [1, 3, 7])
def test_sharded_run_agrees_with_plain_run(small_ggfl, workers):
    params = FbParams(kappa=0.5, max_iters=200, record_every=50)
    plain = run_fb(small_ggfl, params)
    sharded = run_fb_sharded(small_ggfl, params, workers)
    assert sharded.iterations == plain.iterations == 200
    assert _rel_dist(sharded.x, plain.x) <= 1e-12
    assert _rel_dist(sharded.y, plain.y) <= 1e-12
    np.testing.assert_array_equal(sharded.trace.column("k"),
                                  plain.trace.column("k"))
    np.testing.assert_allclose(sharded.trace.column("objective"),
                               plain.trace.column("objective"), rtol=1e-12)


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


def test_problem_without_design_data_is_refused():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((8, 6))
    problem = SaddleProblem(
        quadratic_loss(a, rng.standard_normal(8)),
        rng.standard_normal((4, 6)),
        BoxClip(1.0, 4),
    )
    with pytest.raises(DegenerateProblem):
        run_fb_sharded(problem, FbParams(max_iters=1), 2)
