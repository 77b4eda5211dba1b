"""Feature-sharded execution with communication accounting.

Columns of the loss design ``A`` and of the penalty operator ``K`` are split
into contiguous, balanced blocks, one per worker, and dual rows likewise.
The run stays single-process and its arithmetic is the plain run's; what
the sharding changes is the *accounting*.  The run is
:func:`pdsplit.fb.fb_step` on a counting copy of the problem, whose ``A``
and ``K`` are the problem's own operators charging each product's traffic
to a ledger, iterated as the one-column case of the relaxed iteration
behind :func:`pdsplit.fb.run_fb`; the trajectory is bitwise the plain run's.

Each step makes one adjoint design product in the gradient and one forward
design product on the relaxed iterate, then closes one ledger row.  The
design image of the start and every trace row are evaluated on the
original problem, so they are never charged.

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

from . import fb, saddle
from .errors import ConstraintViolation, TooManyWorkers
from .fb import IterTrace
from .linops import LinearOperator, _is_index, to_sparse

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
        loss, penalty = self._loss_pending, self._penalty_pending
        self.trace.append(iter=iteration, loss_comm=loss, penalty_comm=penalty,
                          total_comm=loss + penalty)
        self._loss_pending = self._penalty_pending = 0

    def column(self, name):
        return self.trace.column(name)


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
    n, p, l : int
        Sample, feature, and dual-row counts.
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
    p: int
    l: int
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
    if not _is_index(m_workers):
        raise ConstraintViolation(f"worker count must be an integer, got {m_workers!r}")
    m = int(m_workers)
    if m < 1:
        raise ConstraintViolation("worker count must be positive")
    p, l = problem.dims
    if m > p:
        raise TooManyWorkers(f"{m} workers for {p} features")
    col_offsets = _balanced_offsets(p, m)
    row_offsets = _balanced_offsets(l, m)
    cross_table = _cross_table(problem.K, row_offsets, col_offsets)
    return ShardPlan(m=m, n=problem.loss.A.shape[0], p=p, l=l, col_offsets=col_offsets,
                     row_offsets=row_offsets, cross_table=cross_table,
                     cross_total=int(cross_table.sum() - np.trace(cross_table)))


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


class _Counted(LinearOperator):
    """``op`` itself, charging ``units`` to ``charge`` per product."""

    def __init__(self, op, charge, units):
        super().__init__(op.shape)
        self._op = op
        self._charge = charge
        self._units = units

    def apply(self, x):
        self._charge(self._units)
        return self._op.apply(x)

    def apply_adjoint(self, y):
        self._charge(self._units)
        return self._op.apply_adjoint(y)


def run_fb_sharded(problem, params, m_workers, x0=None, y0=None, tol=None):
    """Run the base iteration with a traffic ledger of a sharded layout.

    The products are the problem's own, so the iterates and trace are
    bitwise those of :func:`pdsplit.fb.run_fb`; trace rows are not charged
    to the ledger.  ``x0`` and ``y0`` are starting points (zeros by default).

    Returns
    -------
    ShardResult
    """
    x, y = fb._start_point(problem, x0, y0)
    info = fb.validate_params(problem, params)
    params = fb.resolve_params(problem, params)
    plan = partition_problem(problem, m_workers)
    ledger = CommLedger()
    a_op = _Counted(problem.loss.A, ledger.add_loss, (plan.m - 1) * plan.n)
    k_op = _Counted(problem.K, ledger.add_penalty, plan.cross_total)
    shadow = saddle.SaddleProblem(problem.loss.on(a_op), k_op, problem.hconj)

    x, y, _, _, trace, k, converged = fb._relaxed_column(
        problem, shadow, params, info["rho"], x, y, tol,
        on_step=lambda k, x, y: ledger.flush(k),
    )
    return ShardResult(x=x, y=y, trace=trace, ledger=ledger, iterations=k,
                       converged=converged, plan=plan)
