"""Feature-sharded layout of a run, with its communication ledger.

Columns of the loss design ``A`` and of the penalty operator ``K`` are split
into contiguous, balanced blocks, one per worker, and dual rows likewise.
The run stays single-process: it is the plain relaxed iteration behind
:func:`pdsplit.fb.run_fb` on the problem's own operators, so its trajectory
is bitwise the plain run's.  What the sharding adds is the ledger of the
entries that the step's products would move between workers.

Every step makes the same products, ``pdsplit.fb.STEP_PRODUCTS``: two
design products (the gradient's ``A'``, and ``A`` on the relaxed iterate)
and three penalty products.  Each ledger row therefore holds one step's
traffic, a constant of the layout.  Trace rows and the design image of the
start are evaluated apart from the steps and are not charged.

Counting rules per product:

* design matrix: partial row-space vectors are dense, so a forward gather
  and an adjoint broadcast both move ``(workers - 1) * rows`` entries;
* penalty operator: a forward product reduces each dual row's partial sums
  at the row's owner, and an adjoint product ships each needed dual entry
  once, so one entry moves per structurally nonzero row of an off-diagonal
  sub-block (dual rows owned by one worker, columns by another), in either
  direction.  The counts are read from the CSR structure of ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fb
from .errors import TooManyWorkers, _Domain
from .fb import IterTrace
from .linops import to_sparse

LEDGER_COLUMNS = ["iter", "loss_comm", "penalty_comm", "total_comm"]


def _balanced_offsets(total, parts):
    sizes = np.full(parts, total // parts, dtype=int)
    sizes[: total % parts] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def _owners(offsets, index):
    """The worker that owns each entry of ``index`` under block ``offsets``."""
    return np.searchsorted(offsets, index, side="right") - 1


def _cross_table(k_op, row_offsets, col_offsets):
    """Count, per (row owner, column owner) pair, the dual rows that hold a
    stored entry of ``K`` in that owner's columns.

    Each stored entry gives the key ``row * m + column owner``; the distinct
    keys are the nonzero rows of the sub-blocks, binned by their owners.
    """
    k_mat = to_sparse(k_op)
    m = len(col_offsets) - 1
    rows = np.repeat(np.arange(k_mat.shape[0]), np.diff(k_mat.indptr))
    keys = np.sort(rows * m + _owners(col_offsets, k_mat.indices))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    pairs = _owners(row_offsets, keys // m) * m + keys % m
    return np.bincount(pairs, minlength=m * m).reshape(m, m)


@dataclass
class ShardPlan:
    """Balanced layout of a problem across workers.

    Attributes
    ----------
    m : int
        Worker count.
    n : int
        Sample count; the feature and dual-row counts are the problem's ``dims``.
    col_offsets : ndarray
        Feature boundaries; worker ``j`` owns ``col_offsets[j]:col_offsets[j+1]``.
    row_offsets : ndarray
        Dual-row boundaries under the same balancing rule.
    cross_table : ndarray
        ``cross_table[i, j]`` counts structurally nonzero rows of the
        penalty sub-block with rows owned by ``i`` and columns by ``j``.
    cross_total : int
        Off-diagonal sum of ``cross_table``: entries moved per penalty
        product.
    """

    m: int
    n: int
    col_offsets: np.ndarray
    row_offsets: np.ndarray
    cross_table: np.ndarray
    cross_total: int


def partition_problem(problem, m_workers):
    """Lay a problem's features and dual rows out across balanced workers.

    Parameters
    ----------
    problem : SaddleProblem
    m_workers : int
        Number of workers; block sizes differ by at most one.

    Returns
    -------
    ShardPlan

    Raises
    ------
    ConstraintViolation
        If the worker count is not a positive integer (a bool is not one).
    TooManyWorkers
        If there are more workers than feature columns.
    """
    m = int(_Domain("index", "[1, inf)").check("worker count m_workers", m_workers))
    p, l = problem.dims
    if m > p:
        raise TooManyWorkers(f"{m} workers for {p} features")
    col_offsets = _balanced_offsets(p, m)
    row_offsets = _balanced_offsets(l, m)
    cross_table = _cross_table(problem.K, row_offsets, col_offsets)
    return ShardPlan(m=m, n=problem.loss.A.shape[0], col_offsets=col_offsets,
                     row_offsets=row_offsets, cross_table=cross_table,
                     cross_total=int(cross_table.sum() - np.trace(cross_table)))


@dataclass
class ShardResult(fb.FbResult):
    """Outcome of a sharded run: the plain run's result and the ``ledger``,
    with the ``LEDGER_COLUMNS`` and one row per step."""

    ledger: IterTrace


def run_fb_sharded(problem, params, m_workers, x0=None, y0=None, tol=None):
    """Run the base iteration with the traffic ledger of a sharded layout.

    The run is the relaxed iteration of :func:`pdsplit.fb.run_fb`, with the
    parameters that :func:`pdsplit.fb.validate_params` resolves, so its
    result is bitwise the plain run's.  The ledger has a row for every step
    taken, each holding that step's traffic under the counting rules of
    this module.  ``x0`` and ``y0`` are starting points (zeros by default).
    The worker count, start and ``params`` are checked before any step.

    Returns
    -------
    ShardResult
    """
    plan = partition_problem(problem, m_workers)
    result = fb._relaxed_column(problem, params, x0, y0, tol)
    design, coupling = fb.STEP_PRODUCTS
    loss = design * (plan.m - 1) * plan.n
    penalty = coupling * plan.cross_total
    ledger = IterTrace(LEDGER_COLUMNS)
    for i in range(1, result.iterations + 1):
        ledger.append(iter=i, loss_comm=loss, penalty_comm=penalty, total_comm=loss + penalty)
    return ShardResult(**vars(result), ledger=ledger)
