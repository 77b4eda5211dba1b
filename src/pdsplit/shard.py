"""Feature-sharded execution with communication accounting.

Columns of the loss design ``A`` and of the penalty operator ``K`` are split
into contiguous, balanced blocks, one per worker.  The run itself stays
single-process; what the sharding changes is the *accounting*: a ledger
records how many vector entries would cross worker boundaries per
iteration.  The run is :func:`pdsplit.fb.fb_step` on a counting copy of the
problem whose ``A`` and ``K`` are two counting column-block stacks
(:class:`pdsplit.linops.HStackOp` of the blocks), iterated as the one-column
case of the relaxed block iteration behind :func:`pdsplit.fb.run_fb`, in the
one iteration loop of :mod:`pdsplit.fb`.  A forward product sums the block
partials left to right and an adjoint product concatenates the block
adjoints.
A dense design is cut into dense column slices and any other design into
CSR slices; penalty blocks are CSR, whose row structure gives the traffic
counts.

The run carries the design image ``A x`` as :func:`pdsplit.fb.run_fb` does.
The image of the start is read on the original design and charged to no
ledger row.  Each step makes one adjoint design product in the gradient and
one forward design product on the relaxed iterate, then closes one ledger
row.  Trace rows read the carried images and take their metric distance on
the original problem, so they are never charged.

Counting rules per product:

* design matrix: partial row-space vectors are dense, so a forward gather
  and an adjoint broadcast both move ``(workers - 1) * rows`` entries;
* penalty operator: a forward product reduces each dual row's partial sums
  at the row's owner, and an adjoint product ships each needed dual entry
  once, so one entry moves per structurally nonzero row of an off-diagonal
  sub-block (dual rows owned by one worker, columns by another), in either
  direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fb, saddle
from .errors import ConstraintViolation, TooManyWorkers
from .fb import IterTrace
from .linops import DenseOp, HStackOp, SparseOp, _is_index, to_sparse

LEDGER_COLUMNS = ["iter", "loss_comm", "penalty_comm", "total_comm"]


class CommLedger:
    """Per-iteration record of cross-worker traffic.

    Products accumulate into pending counters; ``flush`` closes one
    iteration and appends a row with that iteration's loss-side and
    penalty-side counts plus their sum.
    """

    def __init__(self):
        self.trace = IterTrace(LEDGER_COLUMNS)
        self._loss_pending = 0
        self._penalty_pending = 0

    def add_loss(self, units):
        self._loss_pending += int(units)

    def add_penalty(self, units):
        self._penalty_pending += int(units)

    def flush(self, iteration):
        row_loss = self._loss_pending
        row_pen = self._penalty_pending
        self.trace.append(
            iter=iteration,
            loss_comm=row_loss,
            penalty_comm=row_pen,
            total_comm=row_loss + row_pen,
        )
        self._loss_pending = 0
        self._penalty_pending = 0

    def column(self, name):
        return self.trace.column(name)


def _balanced_offsets(total, parts):
    sizes = np.full(parts, total // parts, dtype=int)
    sizes[: total % parts] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def _column_blocks(op, offsets):
    """Split ``op`` at the column ``offsets``: dense slices of a dense
    design, CSR slices of anything else."""
    bounds = zip(offsets[:-1], offsets[1:])
    if isinstance(op, DenseOp):
        return [DenseOp(op.array[:, lo:hi]) for lo, hi in bounds]
    mat = to_sparse(op)
    return [SparseOp(mat[:, lo:hi]) for lo, hi in bounds]


@dataclass
class ShardPlan:
    """Blockwise layout of a problem across workers.

    Attributes
    ----------
    m : int
        Worker count.
    n, p, l : int
        Sample, feature, and dual-row counts.
    col_offsets : ndarray
        Feature boundaries; worker ``j`` owns ``col_offsets[j]:col_offsets[j+1]``.
    row_offsets : ndarray
        Dual-row boundaries under the same balancing rule.
    a_blocks : list of LinearOperator
        Column blocks of the design, one per worker: dense slices of a
        dense design, CSR slices otherwise.
    k_blocks : list of SparseOp
        CSR column blocks of the penalty operator, one per worker.
    cross_table : ndarray
        ``cross_table[i, j]`` counts structurally nonzero rows of the
        penalty sub-block with rows owned by ``i`` and columns by ``j``.
    cross_total : int
        Off-diagonal sum of ``cross_table``: entries moved per penalty
        product.
    """

    m: int
    n: int
    p: int
    l: int
    col_offsets: np.ndarray
    row_offsets: np.ndarray
    a_blocks: list
    k_blocks: list
    cross_table: np.ndarray
    cross_total: int


def partition_problem(problem, m_workers):
    """Split a problem's design and penalty operator into a balanced plan.

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
    if not _is_index(m_workers):
        raise ConstraintViolation(f"worker count must be an integer, got {m_workers!r}")
    m = int(m_workers)
    if m < 1:
        raise ConstraintViolation("worker count must be positive")
    p, l = problem.dims
    if m > p:
        raise TooManyWorkers(f"{m} workers for {p} features")
    k_mat = to_sparse(problem.K)
    col_offsets = _balanced_offsets(p, m)
    row_offsets = _balanced_offsets(l, m)
    a_blocks = _column_blocks(problem.loss.A, col_offsets)
    k_blocks = []
    row_owner = np.searchsorted(row_offsets, np.arange(l), side="right") - 1
    cross_table = np.zeros((m, m), dtype=int)
    for j in range(m):
        kj = sp.csr_array(k_mat[:, col_offsets[j] : col_offsets[j + 1]])
        k_blocks.append(SparseOp(kj))
        nz_rows = np.flatnonzero(np.diff(kj.indptr) > 0)
        for r in nz_rows:
            cross_table[row_owner[r], j] += 1
    cross_total = int(cross_table.sum() - np.trace(cross_table))
    return ShardPlan(
        m=m,
        n=problem.loss.A.shape[0],
        p=p,
        l=l,
        col_offsets=col_offsets,
        row_offsets=row_offsets,
        a_blocks=a_blocks,
        k_blocks=k_blocks,
        cross_table=cross_table,
        cross_total=cross_total,
    )


@dataclass
class ShardResult:
    """Outcome of a sharded run."""

    x: np.ndarray
    y: np.ndarray
    trace: IterTrace
    ledger: CommLedger
    iterations: int
    converged: bool
    plan: ShardPlan


class _CountingStack(HStackOp):
    """Column-block stack that charges ``units`` to ``charge`` per product."""

    def __init__(self, blocks, charge, units):
        super().__init__(blocks)
        self._charge = charge
        self._units = units

    def apply(self, x):
        self._charge(self._units)
        return super().apply(x)

    def apply_adjoint(self, y):
        self._charge(self._units)
        return super().apply_adjoint(y)


def run_fb_sharded(problem, params, m_workers, x0=None, y0=None, tol=None):
    """Run the base iteration with sharded products and a traffic ledger.

    The arithmetic differs from the dense run only in summation order, so
    the trajectories agree to rounding.  Trace rows read the carried design
    images and are not charged to the ledger.  ``x0`` and ``y0`` are
    starting points (zeros by default).

    Returns
    -------
    ShardResult
    """
    x, y = fb._start_point(problem, x0, y0)
    info = fb.validate_params(problem, params)
    params = fb.resolve_params(problem, params)
    plan = partition_problem(problem, m_workers)
    ledger = CommLedger()
    a_op = _CountingStack(plan.a_blocks, ledger.add_loss, (plan.m - 1) * plan.n)
    k_op = _CountingStack(plan.k_blocks, ledger.add_penalty, plan.cross_total)
    shadow = saddle.SaddleProblem(problem.loss.on(a_op), k_op, problem.hconj)

    x, y, _, _, trace, k, converged = fb._relaxed_column(
        problem, shadow, params, info["rho"], x, y, tol,
        on_step=lambda k, x, y: ledger.flush(k),
    )
    return ShardResult(
        x=x,
        y=y,
        trace=trace,
        ledger=ledger,
        iterations=k,
        converged=converged,
        plan=plan,
    )
