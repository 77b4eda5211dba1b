"""Linear operators with lazy composition and Lanczos norm estimates.

Every operator exposes ``apply`` (forward product) and ``apply_adjoint``
(transpose product) on 1-d numpy vectors, together with a ``shape``
attribute; its class is its kind.  Both products also map a block of
vectors, a 2-d array with one vector per column, to the block of their
images, and every kind does so column-exactly: column ``j`` of a block
image is bitwise the image of column ``j`` alone.  A multi-seed run and a
region scan advance all their columns through one block product each.
Structured operators (identity, zero, stacks) stay lazy so that large
penalty operators never have to be materialized.
A dense product of at least ``SPLIT_MIN_ENTRIES`` matrix entries, in a
process that may run on two CPUs or more, splits its output rows between
the calling thread and one persistent daemon worker thread, the only
thread the package starts.  Each half is the same BLAS call on a row
slice, so every entry is bitwise that of the one-thread product.
Stacks go both ways: :class:`VStackOp` stacks row blocks (a coupling
operator that pairs two penalties) and :class:`HStackOp` stacks column
blocks (a design that reads part of a stacked variable).
:func:`to_sparse` gives the CSR matrix of any operator, the stored one of a
CSR operator.  This module does no file I/O; :mod:`pdsplit.textio` writes
and reads matrices as triplet text.
:func:`op_norm` runs Lanczos on the smaller normal operator, and its budget
counts Lanczos steps, one normal-operator product each: a forward and an
adjoint product, or, once a dense operator has formed its Gram matrix, one
product by that matrix.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateProblem,
    DimensionError,
    IndexOutOfRange,
    NonConvergence,
    SelfLoop,
    UnknownKind,
)
from .errors import _Domain, _is_index

# Sparse matrices strictly smaller than this along both axes are stored dense.
DENSE_FALLBACK_DIM = 64

# Safety factor applied on top of iterative norm estimates.
NORM_SAFETY = 1.01

# Lanczos basis size, and the top Ritz vectors kept when a full basis restarts.
LANCZOS_BASIS = 64
LANCZOS_KEPT = 16

# Forming the smaller Gram matrix of an s x l dense operator (one syrk) costs
# about s / GRAM_COST_SIDE passes over the operator: 18 to 44 over shapes
# from 600 x 600 to 2,048 x 10,240 with OpenBLAS on one x86-64 core, median
# 26.  A Lanczos step reads the operator twice (2sl entries) or the Gram
# matrix once (s^2 entries).  op_norm forms the Gram matrix once the steps it
# has taken would have paid for it out of what each later step saves, as one
# rents skis until the rent paid would have bought them.  Where the constant
# is right, that bounds the cost at twice that of the cheaper product
# throughout, whatever the spectrum.  The sweep measured at most 1.32 times
# the product path, and 2.5 times the Gram path on a 3,000 x 6,000 operator
# whose syrk cost less than the constant says.
GRAM_COST_SIDE = 24

# A dense product of at least this many matrix entries splits its output rows
# between the calling thread and the worker thread.  Below it, the handoff
# costs more than the half product saves: with OpenBLAS on one thread of a
# 2-core x86-64 machine, a forward vector product by a 200 x 1,000 matrix
# took 1.24 times as long split, and products of 2^20 entries or more
# 0.42-0.67 times.  Where BLAS runs its own threads, the split took 0.79-1.33
# times (BENCH_split_products.json).
SPLIT_MIN_ENTRIES = 1 << 20

# numpy's matmul holds the interpreter lock while it computes an output of at
# most this many entries, so two such halves would run one after the other.
MATMUL_LOCKED_OUTPUT = 500


class LinearOperator:
    """Base class for all operator kinds.

    Attributes
    ----------
    shape : tuple of int
        ``(rows, cols)`` of the represented matrix.
    """

    def __init__(self, shape):
        rows, cols = int(shape[0]), int(shape[1])
        if rows < 0 or cols < 0:
            raise DimensionError(f"negative operator shape {shape}")
        self.shape = (rows, cols)

    def _check_vec(self, v, length, what):
        """``v`` as floats, a vector or a column block of ``length`` rows."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != length:
            raise DimensionError(
                f"{what} must be a vector or a column block of length {length}, "
                f"got shape {v.shape}"
            )
        return v

    def apply(self, x):
        raise NotImplementedError

    def apply_adjoint(self, y):
        raise NotImplementedError


def _column_products(matrix, v):
    """``matrix @ v`` for a vector, or one matrix-vector product per column.

    A matrix-matrix product rounds a column differently from the
    matrix-vector product of that column alone, so a block is handed to
    ``matmul`` as a stack of contiguous vectors: column ``j`` of the result
    is bitwise ``matrix @ block[:, j]``.  A one-column block is the gemv of
    its contiguous column, which costs what the product of a vector costs.
    """
    product = _row_split_product if matrix.size >= SPLIT_MIN_ENTRIES else np.matmul
    if v.ndim == 1:
        return product(matrix, v)
    if v.shape[1] == 1:
        return product(matrix, np.ascontiguousarray(v[:, 0]))[:, None]
    return product(matrix, np.ascontiguousarray(v.T)[:, :, None])[:, :, 0].T


def _row_split_product(matrix, operand):
    """``matrix @ operand`` for a vector or a ``(B, k, 1)`` stack of vectors,
    ``matrix`` of at least ``SPLIT_MIN_ENTRIES`` entries.

    In a process that may run on two CPUs or more, the rows of ``matrix``
    from a multiple of 8 near the middle go to the worker thread and the
    rows above it are made in the calling thread.  Each half is one BLAS
    matrix-vector call per vector, as the whole product is, and the split
    point keeps every row in a kernel block of the same shape as in the
    whole product, so the halves join bitwise into the one-thread product.
    Halves of a C-order matrix go through ``np.dot``, one vector at a time,
    which releases the interpreter lock at any size.  Any other layout needs
    ``matmul`` (``np.dot`` leaves BLAS on a strided slice), which holds the
    lock unless its output has more than ``MATMUL_LOCKED_OUTPUT`` entries;
    such a product stays whole, since its halves would run in turn.
    """
    mid = matrix.shape[0] // 16 * 8
    width = 1 if operand.ndim == 1 else operand.shape[0]
    dot = matrix.flags.c_contiguous
    if mid == 0 or (not dot and width * mid <= MATMUL_LOCKED_OUTPUT) or _cpu_count() < 2:
        return matrix @ operand
    worker = _shared_worker()
    if not worker.busy.acquire(blocking=False):
        # Another thread's product holds the worker: this one goes alone.
        return matrix @ operand
    top, bottom = worker.split(_dot_rows if dot else np.matmul, matrix, operand, mid)
    return np.concatenate([top, bottom], axis=0 if operand.ndim == 1 else 1)


def _dot_rows(matrix, operand):
    """``matrix @ operand`` by one ``np.dot`` per vector."""
    if operand.ndim == 1:
        return np.dot(matrix, operand)
    return np.stack([np.dot(matrix, column) for column in operand[:, :, 0]])[:, :, None]


def _cpu_count():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """A daemon thread that makes the lower rows of split products.

    A caller takes ``busy`` and calls :meth:`split`, which posts the lower
    rows through ``_go``, makes the upper rows itself, waits on ``_done``
    and gives ``busy`` back.  A wait cut short by an interrupt keeps
    ``busy``, so no later product can take the result of a product still
    running in the worker: later products all go alone.  Between products
    the worker holds no reference to any operand or result, so it keeps no
    freed operator alive.
    """

    def __init__(self):
        self.busy = threading.Lock()
        self._go = threading.Lock()
        self._done = threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._task = self._result = None
        threading.Thread(target=self._serve, name="pdsplit-products", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            self._run()
            self._done.release()

    def _run(self):
        product, matrix, operand = self._task
        self._task = None
        try:
            self._result = product(matrix, operand), None
        except Exception as exc:
            # Handed to the caller, which raises it.
            self._result = None, exc

    def split(self, product, matrix, operand, mid):
        """``product`` of the rows above ``mid`` here and of the rest in the
        worker, as the pair of results; the worker's error is raised here.
        The caller holds ``busy``."""
        self._task = product, matrix[mid:], operand
        self._go.release()
        try:
            top = product(matrix[:mid], operand)
        finally:
            self._done.acquire()
            bottom, error = self._result
            self._result = None
            self.busy.release()
        if error is not None:
            raise error
        return top, bottom


_worker = None
_worker_start = threading.Lock()


def _shared_worker():
    """The process's worker, started by the first split product."""
    global _worker
    with _worker_start:
        if _worker is None:
            _worker = _Worker()
        return _worker


def _forget_worker():
    """A forked child has no worker thread, and a lock may have been held
    by a thread that it does not have either: it starts afresh."""
    global _worker, _worker_start
    _worker, _worker_start = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


class DenseOp(LinearOperator):
    """Operator backed by a 2-d numpy array.

    Block products are column-exact: each column of the image is bitwise
    the product of that column alone, as for every other operator kind.
    A product by an array of at least ``SPLIT_MIN_ENTRIES`` entries splits
    its output rows between the calling thread and the module's one worker
    thread when the process may run on two CPUs or more; every entry is
    bitwise that of the one-thread product.
    """

    def __init__(self, array):
        array = np.asarray(array, dtype=float)
        if array.ndim != 2:
            raise DimensionError("dense operator needs a 2-d array")
        super().__init__(array.shape)
        self.array = array

    def apply(self, x):
        return _column_products(self.array, self._check_vec(x, self.shape[1], "input"))

    def apply_adjoint(self, y):
        return _column_products(self.array.T, self._check_vec(y, self.shape[0], "adjoint input"))


class SparseOp(LinearOperator):
    """Operator backed by a scipy CSR matrix; a float64 CSR array is shared,
    not copied, as :class:`DenseOp` shares its array."""

    def __init__(self, matrix):
        matrix = sp.csr_array(matrix)
        super().__init__(matrix.shape)
        self.matrix = matrix.astype(float, copy=False)
        self._adjoint = None

    def apply(self, x):
        x = self._check_vec(x, self.shape[1], "input")
        return self.matrix @ x

    def apply_adjoint(self, y):
        y = self._check_vec(y, self.shape[0], "adjoint input")
        if self._adjoint is None:
            self._adjoint = sp.csr_array(self.matrix.T)
        return self._adjoint @ y


class IdentityOp(LinearOperator):
    """Square identity of a given dimension."""

    def __init__(self, n):
        super().__init__((n, n))

    def apply(self, x):
        return self._check_vec(x, self.shape[1], "input").copy()

    def apply_adjoint(self, y):
        return self._check_vec(y, self.shape[0], "adjoint input").copy()


class ZeroOp(LinearOperator):
    """All-zero operator of a given shape."""

    def apply(self, x):
        x = self._check_vec(x, self.shape[1], "input")
        return np.zeros((self.shape[0],) + x.shape[1:])

    def apply_adjoint(self, y):
        y = self._check_vec(y, self.shape[0], "adjoint input")
        return np.zeros((self.shape[1],) + y.shape[1:])


class VStackOp(LinearOperator):
    """Vertical stack of operators sharing a common column dimension.

    The stack stays lazy: forward products concatenate block outputs and
    adjoint products sum block adjoints over the matching row segments.
    """

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise DegenerateProblem("vstack of zero blocks")
        cols = blocks[0].shape[1]
        for b in blocks:
            if not isinstance(b, LinearOperator):
                raise UnknownKind("vstack blocks must be LinearOperator instances")
            if b.shape[1] != cols:
                raise DimensionError(
                    f"vstack blocks disagree on columns: {b.shape[1]} vs {cols}"
                )
        rows = sum(b.shape[0] for b in blocks)
        super().__init__((rows, cols))
        self.blocks = blocks
        self.offsets = np.cumsum([0] + [b.shape[0] for b in blocks])

    def apply(self, x):
        x = self._check_vec(x, self.shape[1], "input")
        return np.concatenate([b.apply(x) for b in self.blocks])

    def apply_adjoint(self, y):
        y = self._check_vec(y, self.shape[0], "adjoint input")
        out = np.zeros((self.shape[1],) + y.shape[1:])
        for b, lo, hi in zip(self.blocks, self.offsets[:-1], self.offsets[1:]):
            out += b.apply_adjoint(y[lo:hi])
        return out


class HStackOp(LinearOperator):
    """Horizontal stack of operators sharing a common row dimension.

    The stack stays lazy: forward products sum the block products of the
    matching column segments, left to right, and adjoint products
    concatenate block adjoints.
    """

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise DegenerateProblem("hstack of zero blocks")
        rows = blocks[0].shape[0]
        for b in blocks:
            if not isinstance(b, LinearOperator):
                raise UnknownKind("hstack blocks must be LinearOperator instances")
            if b.shape[0] != rows:
                raise DimensionError(
                    f"hstack blocks disagree on rows: {b.shape[0]} vs {rows}"
                )
        cols = sum(b.shape[1] for b in blocks)
        super().__init__((rows, cols))
        self.blocks = blocks
        self.offsets = np.cumsum([0] + [b.shape[1] for b in blocks])

    def apply(self, x):
        x = self._check_vec(x, self.shape[1], "input")
        bounds = zip(self.blocks, self.offsets[:-1], self.offsets[1:])
        parts = [b.apply(x[lo:hi]) for b, lo, hi in bounds]
        out = np.array(parts[0], dtype=float, copy=True)
        for part in parts[1:]:
            out = out + part
        return out

    def apply_adjoint(self, y):
        y = self._check_vec(y, self.shape[0], "adjoint input")
        return np.concatenate([b.apply_adjoint(y) for b in self.blocks])


def matrix_operator(a):
    """Wrap a concrete matrix, keeping its storage kind.

    A numpy array stays dense.  A scipy sparse matrix is stored as CSR,
    unless it is smaller than ``DENSE_FALLBACK_DIM`` along both axes, where
    it is densified.
    """
    if sp.issparse(a):
        rows, cols = a.shape
        if rows < DENSE_FALLBACK_DIM and cols < DENSE_FALLBACK_DIM:
            return DenseOp(a.toarray())
        return SparseOp(a)
    return DenseOp(a)


def to_sparse(op):
    """The matrix of ``op`` as a CSR array, the stored one for a CSR operator.

    Any other kind is built from its own structure: a dense array is
    converted, the identity and the zero operator are sparse, and a stack
    stacks its blocks' CSR matrices.  No dense array is formed for a
    structured operator, and its stored entries are exactly the nonzeros of
    its matrix, row by row with sorted columns.  Any other class raises
    :class:`UnknownKind` naming it.
    """
    if isinstance(op, SparseOp):
        return op.matrix
    if isinstance(op, DenseOp):
        return sp.csr_array(op.array)
    if isinstance(op, IdentityOp):
        return sp.eye_array(op.shape[0], format="csr")
    if isinstance(op, ZeroOp):
        return sp.csr_array(op.shape)
    if isinstance(op, (VStackOp, HStackOp)):
        stack = sp.vstack if isinstance(op, VStackOp) else sp.hstack
        out = stack([to_sparse(b) for b in op.blocks], format="csr")
        out.sum_duplicates()
        out.eliminate_zeros()
        return out
    raise UnknownKind(f"no sparse matrix for operator class {type(op).__name__}")


def _gram_switch(op):
    """The Lanczos step from which ``op`` multiplies by its Gram matrix
    (infinite unless it is dense)."""
    if not isinstance(op, DenseOp):
        return math.inf
    small, large = sorted(op.shape)
    form = small * small * large / GRAM_COST_SIDE
    return math.ceil(form / (2 * small * large - small * small))


def op_norm(op, tol=1e-9, max_iters=10000):
    """Largest singular value by Lanczos on the smaller normal operator.

    Lanczos runs on ``A'A`` when ``rows >= cols`` and on ``A A'``
    otherwise, one normal-operator product per step.  Each new basis vector
    is orthogonalized against the whole stored basis (twice), and the
    projection of the normal operator onto the basis (tridiagonal apart
    from restart couplings) is kept as a small dense matrix.  Its top
    eigenvalue, the top Ritz value, is a Rayleigh quotient of the normal
    operator, so the estimate approaches the norm from below.  When the
    basis holds ``LANCZOS_BASIS`` vectors it restarts thick: it keeps the
    top ``LANCZOS_KEPT`` Ritz vectors and goes on from the residual
    direction (Wu & Simon, SIAM J. Matrix Anal. Appl. 22(2), 2000).  The
    stored basis and the eigenproblem solved at every step therefore stay
    bounded whatever the budget.  The starting vector comes from a
    counter-based generator keyed at zero so repeated calls give identical
    results.

    A step makes one forward and one adjoint product.  A dense operator
    forms its smaller Gram matrix (``a @ a.T`` or ``a.T @ a``) once the
    steps taken would have paid for it out of what each later step saves
    (see ``GRAM_COST_SIDE``), and a step multiplies by it from then on.

    Parameters
    ----------
    op : LinearOperator
    tol : float
        Relative tolerance on the Lanczos residual bound
        ``beta * |s| <= tol * lambda``, where ``lambda`` is the top Ritz
        value, ``s`` the last entry of its eigenvector in the projected
        matrix and ``beta`` the norm of the residual direction.  The bound
        caps the distance from ``lambda`` to an eigenvalue of the normal
        operator, at any scale of ``op``.
    max_iters : int
        Budget of Lanczos steps, one normal-operator product each: one
        forward and one adjoint product of ``op``, or a product by its Gram
        matrix.  Forming the Gram matrix is not counted.

    Returns
    -------
    float
        Estimate of the spectral norm of ``op``.

    Raises
    ------
    ConstraintViolation
        If ``tol`` is not a finite number or ``max_iters`` not an integer,
        or either is negative.
    NonConvergence
        If the residual bound has not met the tolerance within the budget.
    DegenerateProblem
        If a normal-operator product is not finite.
    """
    _Domain("real", "[0, inf)").check("tol", tol)
    _Domain("index", "[0, inf)").check("max_iters", max_iters)
    rows, cols = op.shape
    if rows == 0 or cols == 0:
        return 0.0
    first, second = op.apply, op.apply_adjoint
    if rows < cols:
        first, second = second, first
    switch = _gram_switch(op)
    rng = np.random.Generator(np.random.Philox(0))
    q = rng.standard_normal(min(rows, cols))
    basis = np.empty((LANCZOS_BASIS, q.size))
    proj = np.zeros((LANCZOS_BASIS, LANCZOS_BASIS))
    basis[0] = q / np.linalg.norm(q)
    j = 0
    for step in range(max_iters):
        if step == switch:
            a = op.array
            gram = a @ a.T if rows < cols else a.T @ a
        w = second(first(basis[j])) if step < switch else gram @ basis[j]
        if not np.all(np.isfinite(w)):
            raise DegenerateProblem("normal-operator product is not finite")
        done = basis[: j + 1]
        h = done @ w
        w = w - h @ done
        again = done @ w
        w = w - again @ done
        proj[: j + 1, j] = proj[j, : j + 1] = h + again
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(proj[: j + 1, : j + 1])
        lam = max(float(ritz[-1]), 0.0)
        if beta * abs(vecs[-1, -1]) <= tol * lam:
            return float(np.sqrt(lam))
        if j + 1 == LANCZOS_BASIS:
            kept = vecs[:, -LANCZOS_KEPT:]
            basis[:LANCZOS_KEPT] = kept.T @ basis
            proj[:] = 0.0
            proj[:LANCZOS_KEPT, :LANCZOS_KEPT] = np.diag(ritz[-LANCZOS_KEPT:])
            j = LANCZOS_KEPT
        else:
            j += 1
        basis[j] = w / beta
    raise NonConvergence(f"Lanczos did not settle in {max_iters} products")


def safe_op_norm(op):
    """Spectral norm estimate inflated by the safety factor.

    The Lanczos estimate approaches the top singular value from below, so
    values fed into step-size bounds get multiplied by ``NORM_SAFETY`` to
    stay on the conservative side.
    """
    return NORM_SAFETY * op_norm(op)


def build_group_membership(groups, p):
    """Row-selector operator for (possibly overlapping) coordinate groups.

    Stacking the selector of every group gives an operator whose forward
    product lists the group subvectors in order, so a blockwise penalty on
    the output equals the overlapping group penalty on the input.

    Parameters
    ----------
    groups : sequence of sequences of int
        0-based coordinate indices, one inner sequence per group.  Indices
        may have any integer type; nothing else is converted.
    p : int
        Ambient dimension.

    Returns
    -------
    LinearOperator
        Operator of shape ``(sum of group sizes, p)``.

    Raises
    ------
    DegenerateProblem
        If there are no groups or a group is empty.
    DimensionError
        If a group is not a flat sequence.
    IndexOutOfRange
        If an index is not an integer or falls outside ``[0, p)``; the
        message names the first such group.
    """
    groups = list(groups)
    if not groups:
        raise DegenerateProblem("no groups given")
    rows = []
    for j, group in enumerate(groups):
        g = np.asarray(group)
        if g.ndim != 1:
            raise DimensionError(f"group {j} is not a flat sequence of indices")
        if g.size == 0:
            raise DegenerateProblem(f"group {j} is empty")
        if not (isinstance(group, np.ndarray) and g.dtype.kind in "iu"):
            # The array of a Python sequence can hide a bool among integers.
            if not all(map(_is_index, group)):
                raise IndexOutOfRange(f"group {j} holds a non-integer index")
        if np.any(g < 0) or np.any(g >= p):
            raise IndexOutOfRange(f"group {j} references a coordinate outside [0, {p})")
        rows.append(g.astype(np.int64))
    cols = np.concatenate(rows)
    total = cols.size
    mat = sp.csr_array(
        (np.ones(total), (np.arange(total), cols)), shape=(total, p)
    )
    return matrix_operator(mat)


def build_graph_difference(edges, p):
    """Signed edge-difference operator of a graph on ``p`` nodes.

    Each edge ``(i, j)`` contributes one row with ``+1`` at ``i`` and ``-1``
    at ``j``, so the forward product lists the differences ``x[i] - x[j]``.
    The matrix is built as CSR directly: row ``k`` holds entries ``2k`` and
    ``2k + 1`` (``indptr = 0, 2, 4, ...``), its two columns in ascending
    order, with 64-bit indices.

    Parameters
    ----------
    edges : (m, 2) integer array or sequence of (int, int)
        0-based node pairs.  Indices may have any integer type; nothing
        else is converted.  An integer array is checked by array code
        alone; a Python sequence also has the type of each entry read,
        since its array can hide a bool among integers.
    p : int
        Number of nodes.

    Returns
    -------
    LinearOperator
        Operator of shape ``(m, p)``.

    Raises
    ------
    DegenerateProblem
        If there are no edges.
    DimensionError
        If ``edges`` is not a sequence of pairs.
    IndexOutOfRange
        If an endpoint is not an integer (checked over all edges first), or
        falls outside ``[0, p)``.
    SelfLoop
        If an edge joins a node to itself.  Each error names the first bad
        edge; at one edge a self-loop is reported before a bad range.
    """
    try:
        arr = np.asarray(edges)
    except ValueError:
        raise DimensionError("edges must be pairs of node indices") from None
    if arr.ndim >= 1 and arr.shape[0] == 0:
        raise DegenerateProblem("no edges given")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DimensionError("edges must be pairs of node indices")
    if not (isinstance(edges, np.ndarray) and arr.dtype.kind in "iu"):
        # The array of a Python sequence can hide a bool among integers.
        bad = next((k for k, e in enumerate(edges) if not all(map(_is_index, e))), None)
        if bad is not None:
            raise IndexOutOfRange(f"edge {bad} holds a non-integer node index")
    tail, head = arr[:, 0], arr[:, 1]
    loop = tail == head
    bad = loop | (tail < 0) | (tail >= p) | (head < 0) | (head >= p)
    if bad.any():
        k = int(np.argmax(bad))
        if loop[k]:
            raise SelfLoop(f"edge {k} joins node {tail[k]} to itself")
        raise IndexOutOfRange(f"edge {k} references a node outside [0, {p})")
    arr = arr.astype(np.int64, copy=False)
    tail, head = arr[:, 0], arr[:, 1]
    indices = np.stack([np.minimum(tail, head), np.maximum(tail, head)], axis=1)
    first = np.where(tail < head, 1.0, -1.0)
    data = np.stack([first, -first], axis=1)
    indptr = np.arange(0, indices.size + 1, 2, dtype=np.int64)
    mat = sp.csr_array((data.ravel(), indices.ravel(), indptr), shape=(len(arr), p))
    return matrix_operator(mat)
