"""Relaxed preconditioned forward-backward iteration on the saddle problem.

One parameter ``kappa`` in ``[-1, 1]`` moves the preconditioner along a
continuum: ``kappa = 0`` evaluates the penalty prox at a gradient-corrected
point and leaves the metric block diagonal, while ``|kappa| = 1`` anchors
the prox fully on one side and couples the metric blocks.  All members share
the same fixed points, step-size region arithmetic, and relaxation cap.

Every relaxed run passes one gate, :func:`validate_params`, which fills in
the recipe steps and relaxation and tests them against the region:
:func:`run_fb` and the sharded run step with, and return, the steps and
relaxation it resolves.  :func:`run_fb_block`, the runner of a region
scan, probes inadmissible pairs on purpose and checks only their ranges.

Every run's result is a :class:`RunResult` with its runner's own fields.

``_drive`` is the one iteration loop of every runner.  Its iterate is a
``(dim, B)`` block with one run per column: the one column of
:func:`run_fb`, :func:`run_fbf`, :func:`pdsplit.shard.run_fb_sharded` and
:func:`pdsplit.accel.run_accel`, the seeds of :func:`pdsplit.stoch.run_stoc`
or the cells of :func:`run_fb_block`.  The runners supply only their step
and their trace columns.  Operators, prox maps, loss gradients and the step
norm act column by column, so each column is bitwise the run of that column
alone, and a block costs its columns' runs: a dense block product is one
matrix-vector product per column, since a matrix-matrix product would round
a column differently.  A dense product of ``linops.SPLIT_MIN_ENTRIES``
entries or more, of a vector or a block, splits its rows across two threads
where the process may run on two CPUs, bitwise the same (see
:mod:`pdsplit.linops`).

:func:`run_fb` and :func:`run_fbf` compute the design image ``A x`` once per
iterate for the next gradient and the trace row, and :class:`_ErgodicMean`
carries the image of the ergodic mean, so a trace row costs no design
product.  The metric distance ``mdist`` of a relaxed row (:func:`m_norm`)
costs one ``K'`` product; :func:`run_fbf` and the accelerated runners
record ``nan``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import saddle, textio
from .errors import ConstraintViolation, DegenerateProblem, DimensionError, NonFiniteIterate
from .errors import _arg, _check_fields, _Domain

# Fraction of the theoretical caps used by the step and relaxation recipes.
RECIPE_FACTOR = 0.9

# The domain of a stopping tolerance on the step residual.
_TOL = _Domain("real", "[0, inf]", none=True)


@dataclass
class FbParams:
    """Parameters of the relaxed preconditioned iteration.

    A field outside its declared domain raises :class:`ConstraintViolation`
    naming it at construction (a bool is not a number).

    Attributes
    ----------
    kappa : float
        Continuum position, a number in ``[-1, 1]``.
    tau, sigma : float or None
        Primal and dual steps, finite and positive; ``None`` selects each
        recipe value.
    relaxation : float or str
        A constant relaxation factor, finite and positive, or ``"recipe"``
        for 0.9 times the cap.
    max_iters : int
        Iteration budget, a nonnegative integer.
    record_every : int
        Trace row cadence, positive (the final row is always recorded).
    """

    kappa: float = _arg(0.0, "real", "[-1, 1]")
    tau: float | None = _arg(None, "real", "(0, inf)")
    sigma: float | None = _arg(None, "real", "(0, inf)")
    relaxation: float | str = _arg("recipe", "real", "(0, inf)", words=("recipe",))
    max_iters: int = _arg(1000, "index", "[0, inf)")
    record_every: int = _arg(1, "index", "[1, inf)")

    def __post_init__(self):
        _check_fields(self)


class IterTrace:
    """Columnar iteration trace, written as a CSV table.

    Values are written with 17 significant digits so that reading the table
    back (:func:`pdsplit.textio.read_table`) reproduces the recorded doubles
    exactly.
    """

    def __init__(self, columns):
        self.columns = list(columns)
        self._data = {c: [] for c in self.columns}

    def append(self, **values):
        if set(values) != set(self.columns):
            raise DimensionError(
                f"trace row keys {sorted(values)} do not match columns {sorted(self.columns)}"
            )
        for c in self.columns:
            self._data[c].append(float(values[c]))

    def __len__(self):
        return len(self._data[self.columns[0]]) if self.columns else 0

    def column(self, name):
        return np.asarray(self._data[name], dtype=float)

    def to_csv(self, path):
        """Write the trace atomically as a CSV table."""
        textio.write_table(path, self.columns, zip(*(self._data[c] for c in self.columns)))


TRACE_COLUMNS = ["k", "objective", "ergodic_objective", "residual", "mdist", "seconds"]


@dataclass
class RunResult:
    """Outcome of one run of the family: the final pair ``(x, y)``, the last
    resolvent pair ``(x_tilde, y_tilde)``, the trace and the step count.
    Each runner's result adds its own fields."""

    x: np.ndarray
    y: np.ndarray
    x_tilde: np.ndarray
    y_tilde: np.ndarray
    trace: IterTrace
    iterations: int


@dataclass
class FbResult(RunResult):
    """Outcome of a forward-backward run, with the steps and relaxation it
    ran with (:func:`run_fbf`: one step as both)."""

    converged: bool
    tau: float
    sigma: float
    rho: float


def convergence_region(l_f, k_norm, kappa, tau, sigma):
    """Step-size region test with slack diagnostics.

    The pair ``(tau, sigma)`` is admissible for continuum position ``kappa``
    when the curvature margin ``1/tau - l_f/2`` is positive and the coupling
    product ``(1/tau - l_f/2) * (1/sigma - tau * k_norm^2)`` exceeds
    ``(tau * l_f / 2) * kappa^2 * k_norm^2``.  Larger ``|kappa|`` only
    shrinks the region.

    Returns
    -------
    (bool, dict)
        Validity flag and a dict with absolute margins ``curvature`` and
        ``coupling`` plus scale-free ``rel_curvature`` and ``rel_coupling``
        entries for interior tests.
    """
    if tau <= 0 or sigma <= 0:
        raise ConstraintViolation("step sizes must be positive")
    inv_tau = 1.0 / tau
    inv_sigma = 1.0 / sigma
    m_curv = inv_tau - l_f / 2.0
    lhs = m_curv * (inv_sigma - tau * k_norm**2)
    rhs = (tau * l_f / 2.0) * (kappa * k_norm) ** 2
    m_couple = lhs - rhs
    scale_curv = inv_tau + l_f / 2.0
    scale_couple = abs(m_curv) * (inv_sigma + tau * k_norm**2) + rhs + 1e-300
    margins = {
        "curvature": m_curv,
        "coupling": m_couple,
        "rel_curvature": m_curv / scale_curv,
        "rel_coupling": m_couple / scale_couple,
    }
    valid = m_curv > 0 and m_couple > 0 and tau * sigma * k_norm**2 < 1.0
    return valid, margins


def relaxation_cap(l_f, k_norm, kappa, tau, sigma):
    """Upper relaxation bound for admissible parameters.

    ``delta = 2 - (tau * l_f / 2) * (1 - (1 - kappa^2) * s) / (1 - s)`` with
    ``s = tau * sigma * k_norm^2``; the parameters are admissible exactly
    when the bound exceeds 1.  Returns ``-inf`` when ``s >= 1``.
    """
    s = tau * sigma * k_norm**2
    if s >= 1.0:
        return -np.inf
    return 2.0 - (tau * l_f / 2.0) * (1.0 - (1.0 - kappa**2) * s) / (1.0 - s)


def default_step_sizes(problem, kappa):
    """Recipe step sizes saturating the region at 90 percent.

    The primal step takes 90 percent of its curvature cap ``2 / L_f`` (or
    ``1 / ||K||`` for a vanishing smooth part) and the dual step takes 90
    percent of the largest admissible value at that primal step,

    ``sigma_max = (1 - tau L_f / 2) / ((1 - (1 - kappa^2) tau L_f / 2)
    * tau * ||K||^2)``.

    Returns
    -------
    (float, float)
        ``(tau, sigma)`` passing :func:`validate_params`.
    """
    l_f = problem.L_f
    k_norm = problem.k_norm
    if k_norm <= 0:
        raise DegenerateProblem("coupling operator has zero norm")
    if l_f > 0:
        tau = RECIPE_FACTOR * 2.0 / l_f
    else:
        tau = 1.0 / k_norm
    half = tau * l_f / 2.0
    sigma_max = (1.0 - half) / ((1.0 - (1.0 - kappa**2) * half) * tau * k_norm**2)
    return tau, RECIPE_FACTOR * sigma_max


def validate_params(problem, params):
    """Resolve a relaxed run's parameters and check them against the region.

    A ``None`` step takes its :func:`default_step_sizes` value and
    ``"recipe"`` relaxation ``RECIPE_FACTOR`` times the cap.

    Returns
    -------
    dict
        Resolved ``tau``, ``sigma`` and ``rho`` as floats and the
        relaxation cap ``delta``.

    Raises
    ------
    ConstraintViolation
        If the steps leave the region or a relaxation reaches the cap.
    """
    kappa, tau, sigma = params.kappa, params.tau, params.sigma
    if tau is None or sigma is None:
        dtau, dsigma = default_step_sizes(problem, kappa)
        tau = dtau if tau is None else tau
        sigma = dsigma if sigma is None else sigma
    valid, margins = convergence_region(problem.L_f, problem.k_norm, kappa, tau, sigma)
    if not valid:
        raise ConstraintViolation(
            "step sizes leave the convergence region "
            f"(curvature margin {margins['curvature']:.3g}, "
            f"coupling margin {margins['coupling']:.3g})"
        )
    delta = relaxation_cap(problem.L_f, problem.k_norm, kappa, tau, sigma)
    rho = params.relaxation
    if rho == "recipe":
        rho = RECIPE_FACTOR * delta
    elif not rho < delta:
        raise ConstraintViolation(
            f"relaxation must be 'recipe' or a number in (0, {delta:.6g}), got {rho!r}"
        )
    return {
        "tau": float(tau),
        "sigma": float(sigma),
        "rho": float(rho),
        "delta": delta,
    }


# Design and coupling products of one relaxed step: the gradient in
# :func:`fb_step` reads the carried ``A x`` and makes one ``A'`` product, the
# runner one ``A`` product on the relaxed iterate, and :func:`fb_step` the
# coupling products ``K' y``, ``K w`` and ``K' y_new``.  Trace rows are not
# steps and are not counted here.
STEP_PRODUCTS = (2, 3)


def fb_step(problem, kappa, tau, sigma, x, y, ax=None):
    """One resolvent evaluation of the preconditioned iteration.

    Evaluates the gradient at ``x`` (reading the design image ``ax = A x``
    when supplied), forms the prox anchor
    ``w = x + tau * (kappa - 1) * (grad + K' y)``, updates the dual through
    the conjugate prox at ``y + sigma * K w``, and completes the primal as
    ``x - tau * (grad - kappa * K' y + (1 + kappa) * K' y_new)``.

    ``(x, y)`` may be a block pair with one column per run; ``kappa``,
    ``tau`` and ``sigma`` are then scalars or ``(B,)`` rows with one entry
    per column, and column ``j`` of the output is bitwise the step of
    column ``j`` alone with its own entries.

    Returns
    -------
    (ndarray, ndarray)
        The unrelaxed output pair.
    """
    g = problem.loss.grad(x, ax)
    kty = problem.K.apply_adjoint(y)
    w = x + (tau * (kappa - 1.0)) * (g + kty)
    y_new = problem.hconj.prox(y + sigma * problem.K.apply(w), sigma)
    x_new = x - tau * (
        g - kappa * kty + (1.0 + kappa) * problem.K.apply_adjoint(y_new)
    )
    return x_new, y_new


def m_norm(problem, kappa, tau, sigma, dx, dy):
    """Metric norm ``||(dx, dy)||_M`` of the preconditioner, clipped against rounding.

    With ``C = kappa K`` the metric is ``[[I/tau, C'], [C, I/sigma + tau (C C'
    - K K')]]``, so its quadratic form is ``|dx|^2/tau + 2 kappa <K' dy, dx>
    + |dy|^2/sigma + tau (kappa^2 - 1) |K' dy|^2``: one ``K'`` product at any
    problem size.
    """
    kty = problem.K.apply_adjoint(dy)
    square = (dx @ dx / tau + 2.0 * kappa * (kty @ dx) + dy @ dy / sigma
              + tau * (kappa**2 - 1.0) * (kty @ kty))
    return float(np.sqrt(max(float(square), 0.0)))


def _step_norm(dx, dy):
    """Euclidean norm of each column of the block step ``(dx, dy)``.

    A column's squares are dot products of a contiguous row of the
    transposed step, as the norm of a vector takes them: a dot product over
    a strided column rounds differently, and column ``j`` must be bitwise
    the norm of that column's step alone.
    """
    rx, ry = np.ascontiguousarray(dx.T), np.ascontiguousarray(dy.T)
    return np.sqrt(np.vecdot(rx, rx) + np.vecdot(ry, ry))


def _lost_columns(x, y):
    """Mask of the block columns whose pair is not finite."""
    return ~(np.isfinite(x).all(axis=0) & np.isfinite(y).all(axis=0))


def _start_point(problem, x0, y0):
    """Copy the starting pair (zeros by default) and check its shape."""
    p, l = problem.dims
    x = np.zeros(p) if x0 is None else np.asarray(x0, dtype=float).copy()
    y = np.zeros(l) if y0 is None else np.asarray(y0, dtype=float).copy()
    if x.shape != (p,) or y.shape != (l,):
        raise DimensionError("starting point does not match problem dimensions")
    return x, y


def _drive(step, row, n_steps, record_every, columns, labels=("",), tol=None,
           raise_lost=True, leave=None):
    """The iteration loop of every runner.

    The iterate is a block with one column per label (``""`` for the one
    column of a single run).  ``step(k)`` advances every column still in the
    block and returns the new resolvent block pair and the ``(B,)`` array of
    step residuals.  The pair is scanned for finiteness only when a
    residual is not finite: a non-finite entry makes its column's residual
    non-finite, while squares of large finite entries can overflow it, so
    the scan decides and an overflowing residual of a finite pair is
    recorded.  ``row(k, res, which)`` returns a dict of the trace columns
    other than ``k`` and ``seconds`` for each block position in ``which``.
    Each label keeps a trace, with a row every ``record_every`` steps and
    when its column stops; every column stops at the last step.  Three
    behaviours are set independently:

    * ``raise_lost``: a non-finite column raises
      :class:`~pdsplit.errors.NonFiniteIterate` naming the iteration and its
      label; otherwise it stops there, unconverged, with no row.
    * ``tol``: a column whose residual is at or below ``tol`` stops,
      converged.
    * ``leave(gone, where)`` receives the mask of the stopping block
      positions and their label indices; the runner keeps their final state
      and drops them from its block.  A runner without it must stop all its
      columns at one step: it has one column, or it has no ``tol`` and
      raises on a lost column.

    Returns
    -------
    (list of IterTrace, ndarray, ndarray)
        One trace per label, and each label's last iteration index and
        convergence flag.

    Raises
    ------
    ConstraintViolation
        If ``tol`` is not ``None`` or a nonnegative number (a bool is not
        one).
    """
    _TOL.check("tolerance", tol)
    traces = [IterTrace(columns) for _ in labels]
    last = np.zeros(len(labels), dtype=int)
    converged = np.zeros(len(labels), dtype=bool)
    where = np.arange(len(labels))
    start = time.perf_counter()

    def record(k, res, which):
        seconds = time.perf_counter() - start
        for i, values in zip(where[which], row(k, res, which)):
            traces[i].append(k=k, seconds=seconds, **values)

    for k in range(1, n_steps + 1):
        if not where.size:
            break
        x_t, y_t, res = step(k)
        values = res.tolist()
        lost = None
        if not math.isfinite(sum(values)):
            lost = _lost_columns(x_t, y_t)
            if not lost.any():
                lost = None
            elif raise_lost:
                names = ", ".join(labels[i] for i in where[lost])
                raise NonFiniteIterate(
                    f"iterate left the finite range at iteration {k}"
                    + (f" in {names}" if names else ""))
        hit = tol is not None and any(r <= tol for r in values)
        due = k % record_every == 0 or k == n_steps
        if not (hit or lost is not None or k == n_steps):
            if due:
                record(k, res, np.arange(where.size))
            continue
        none = np.zeros(where.size, dtype=bool)
        lost = none if lost is None else lost
        hit = res <= tol if hit else none
        record(k, res, np.flatnonzero(~lost if due else hit))
        gone = hit | lost | (k == n_steps)
        if gone.any():
            last[where[gone]] = k
            converged[where[gone]] = hit[gone]
            if leave is not None:
                leave(gone, where[gone])
            where = where[~gone]
    return traces, last, converged


def _column(block, j):
    """Column ``j`` of a block as a contiguous vector, as a run on that
    column alone holds it."""
    return np.ascontiguousarray(block[:, j])


class _ErgodicMean:
    """Weighted running mean of the resolvent points of a block iterate.

    It also carries the weighted sum of the points' design images, so the
    ergodic objective reads its ``A x`` from the sum instead of a design
    product.  The sums are blocks with one column per run.
    """

    def __init__(self, point, image):
        self.total = np.zeros_like(point)
        self.image = np.zeros_like(image)
        self.weight = 0.0

    def add(self, weight, point, image):
        """Add ``weight * point``; ``image`` is its design image."""
        self.total += weight * point
        self.weight += weight
        self.image += image

    def keep(self, mask):
        """Drop the block columns outside ``mask``."""
        self.total = self.total[:, mask]
        self.image = self.image[:, mask]

    def row(self, problem, j, x, ax, res, mdist):
        """Trace columns of the forward-backward family for block column
        ``j``, whose iterate is the vector ``x`` with design image ``ax``."""
        return {
            "objective": saddle.primal_objective(problem, x, ax),
            "ergodic_objective": saddle.primal_objective(
                problem, self.total[:, j] / self.weight, self.image[:, j] / self.weight
            ),
            "residual": res,
            "mdist": mdist,
        }


def _relaxed_run(problem, kappa, tau, sigma, rho, x, y, max_iters, record_every, tol,
                 labels=("",), raise_lost=True):
    """Relaxed iteration of a block through the shared driver.

    ``(x, y)`` is a block pair with one column per label, and ``kappa``,
    ``tau`` and ``sigma`` are scalars shared by every column or ``(B,)``
    rows with one entry per column, as :func:`fb_step` takes them; each
    column stops at its own step and leaves the block (see :func:`_drive`).

    The design image ``A x`` of the start is computed once, and that of
    each relaxed iterate once per step, read by the next gradient and the
    trace row, so a step makes the products of ``STEP_PRODUCTS``.  The
    ergodic image grows by ``A (rho x~_k) = A x_k - (1 - rho) A x_{k-1}``.

    The step keeps its displacement ``(dx, dy)``, and the metric distance
    ``||(dx, dy)||_M`` (:func:`m_norm`, one ``K'`` product) is evaluated
    only for recorded rows, on contiguous copies of the column, as a run on
    that column alone would.

    Returns
    -------
    (x, y, x_tilde, y_tilde, traces, iterations, converged)
        The final block pairs, one trace per label, and arrays of the
        iteration counts and convergence flags.
    """
    design = problem.loss.A
    ax = design.apply(x)
    erg = _ErgodicMean(x, ax)
    x_t, y_t, dx, dy = x, y, None, None
    final = [a.copy() for a in (x, y, x, y)]

    def step(k):
        nonlocal x, y, ax, x_t, y_t, dx, dy
        x_t, y_t = fb_step(problem, kappa, tau, sigma, x, y, ax)
        dx = x_t - x
        dy = y_t - y
        res = _step_norm(dx, dy)
        x = x + rho * dx
        y = y + rho * dy
        ax_prev, ax = ax, design.apply(x)
        erg.add(rho, x_t, ax - (1.0 - rho) * ax_prev)
        return x_t, y_t, res

    # Each column's kappa, tau and sigma, for its rows and for leaving.
    cells = np.array([np.broadcast_to(v, x.shape[1:]) for v in (kappa, tau, sigma)])

    def row(k, res, which):
        rows = []
        for j in which:
            dxj, dyj = _column(dx, j), _column(dy, j)
            mdist = m_norm(problem, *cells[:, j].tolist(), dxj, dyj)
            rows.append(erg.row(problem, j, _column(x, j), _column(ax, j), res[j], mdist))
        return rows

    def leave(gone, where):
        nonlocal x, y, ax, x_t, y_t, dx, dy, kappa, tau, sigma, cells
        for out, a in zip(final, (x, y, x_t, y_t)):
            out[:, where] = a[:, gone]
        keep = ~gone
        cells = cells[:, keep]
        kappa, tau, sigma = cells
        x, y, ax, x_t, y_t, dx, dy = (a[:, keep] for a in (x, y, ax, x_t, y_t, dx, dy))
        erg.keep(keep)

    traces, ks, converged = _drive(step, row, max_iters, record_every, TRACE_COLUMNS,
                                   labels, tol, raise_lost, leave)
    return (*final, traces, ks, converged)


def _relaxed_column(problem, params, x0, y0, tol):
    """The :class:`FbResult` of one relaxed run from ``(x0, y0)``, behind
    :func:`run_fb` and the sharded run: the one-column case of
    :func:`_relaxed_run`.  The start and ``params`` are checked before any
    step, and a non-finite pair raises."""
    x, y = _start_point(problem, x0, y0)
    info = validate_params(problem, params)
    *pairs, traces, ks, converged = _relaxed_run(
        problem, params.kappa, info["tau"], info["sigma"], info["rho"], x[:, None],
        y[:, None], params.max_iters, params.record_every, tol)
    return FbResult(*(a[:, 0] for a in pairs), traces[0], int(ks[0]), bool(converged[0]),
                    info["tau"], info["sigma"], info["rho"])


def run_fb(problem, params, x0=None, y0=None, tol=None):
    """Run the relaxed preconditioned iteration.

    ``params`` pass :func:`validate_params`, and the run steps with, and its
    result carries, the steps and relaxation that resolves.  Every trace
    row records the metric distance ``mdist`` of its step (:func:`m_norm`).
    The run is the one-column case of :func:`run_fb_block`'s block
    iteration; a non-finite pair raises :class:`~pdsplit.errors.NonFiniteIterate`.

    Parameters
    ----------
    problem : SaddleProblem
    params : FbParams
    x0, y0 : ndarray, optional
        Starting points (zeros by default).
    tol : float, optional
        Stop once the unrelaxed step residual falls at or below this value.

    Returns
    -------
    FbResult
    """
    return _relaxed_column(problem, params, x0, y0, tol)


def run_fb_block(problem, kappa, tau, sigma, max_iters, tol):
    """Run the plain iteration once per column, all columns as one block.

    Column ``j`` starts at zero and steps with ``kappa[j]``, ``tau[j]``,
    ``sigma[j]`` and relaxation 1, recording a trace row only at its last
    step or at its convergence.  The region is not checked, as a region
    scan probes inadmissible pairs on purpose; a column whose pair passes
    :func:`validate_params` is bitwise the :func:`run_fb` of
    ``FbParams(kappa[j], tau[j], sigma[j], relaxation=1.0,
    max_iters=max_iters, record_every=max(max_iters, 1))`` with ``tol``.
    Each step advances every column still running through one
    :func:`fb_step` on the block, so the products per step do not grow
    with the column count.  A column leaves the block when it converges,
    at the budget, or when its pair leaves the finite range.  The last is
    an outcome here, where :func:`run_fb` raises: the column records no row
    at that step, its result holds the non-finite resolvent pair, and it
    has not converged.

    Parameters
    ----------
    problem : SaddleProblem
    kappa, tau, sigma : sequence of float
        One ``kappa`` in ``[-1, 1]`` and positive steps per column, each a
        real number (a bool is not), else :class:`ConstraintViolation`.
        An infinite step, which the scan of a degenerate problem forms, is
        taken as given.
    max_iters : int
        Iteration budget of every column, a nonnegative integer.
    tol : float
        Per-column stopping tolerance on the unrelaxed step residual.

    Returns
    -------
    list of FbResult
        One result per column, in order, with its steps and relaxation 1.
    """
    kappa, tau, sigma = (np.asarray(v, dtype=object) for v in (kappa, tau, sigma))
    if kappa.ndim != 1 or tau.shape != kappa.shape or sigma.shape != kappa.shape:
        raise DimensionError("kappa, tau and sigma must be rows of one length")
    for name, row, interval in (("kappa", kappa, "[-1, 1]"), ("tau", tau, "(0, inf]"),
                                ("sigma", sigma, "(0, inf]")):
        for value in row:
            _Domain("real", interval).check(f"every {name}", value)
    _check_fields(FbParams, max_iters=max_iters)
    kappa, tau, sigma = (row.astype(float) for row in (kappa, tau, sigma))
    p, l = problem.dims
    n = kappa.size
    x, y, x_t, y_t, traces, ks, converged = _relaxed_run(
        problem, kappa, tau, sigma, 1.0, np.zeros((p, n)), np.zeros((l, n)),
        max_iters, max(max_iters, 1), tol, labels=[f"column {j}" for j in range(n)],
        raise_lost=False,
    )
    return [FbResult(*(a[:, j].copy() for a in (x, y, x_t, y_t)), trace, int(ks[j]),
                     bool(converged[j]), float(tau[j]), float(sigma[j]), 1.0)
            for j, trace in enumerate(traces)]


def fbf_default_step(problem):
    """Step size for the forward-backward-forward benchmark.

    The forward map of the saddle operator is Lipschitz with constant
    ``L_f + ||K||``, so any step below the reciprocal works; this returns
    0.99 times the cap.
    """
    return 0.99 / (problem.L_f + problem.k_norm)


def fbf_step(problem, tau, x, y, x_prev, y_prev, alpha1=0.0, alpha2=0.0, ax=None):
    """One inertial forward-backward-forward update.

    A tentative pair moves along the forward map with inertia ``alpha1``,
    then both blocks are corrected with the re-evaluated coupling and
    inertia ``alpha2``.  With zero inertia this is the classical
    two-forward-evaluation scheme; the dual prox uses the same step as the
    primal.  A supplied ``ax`` is the design image ``A x`` the gradient
    reads.

    Returns
    -------
    (ndarray, ndarray)
        The corrected iterate pair.
    """
    g = problem.loss.grad(x, ax)
    x_mid = x - tau * (g + problem.K.apply_adjoint(y)) + alpha1 * (x - x_prev)
    y_mid = problem.hconj.prox(
        y + tau * problem.K.apply(x) + alpha1 * (y - y_prev), tau
    )
    y_new = y_mid + tau * problem.K.apply(x_mid - x) + alpha2 * (y - y_prev)
    x_new = x_mid - tau * problem.K.apply_adjoint(y_mid - y) + alpha2 * (x - x_prev)
    return x_new, y_new


def run_fbf(problem, tau=None, alpha1=0.0, alpha2=0.0, max_iters=1000, x0=None, y0=None,
            tol=None, record_every=1):
    """Run the forward-backward-forward benchmark iteration.

    ``tau`` (by default :func:`fbf_default_step`), ``max_iters`` and
    ``record_every`` take the domains of those :class:`FbParams` fields,
    and ``alpha1`` and ``alpha2`` any finite number, else
    :class:`ConstraintViolation`; a problem with ``L_f + ||K|| = 0``
    raises :class:`DegenerateProblem`.  Returns an :class:`FbResult` with
    ``tau`` as both steps; the metric distance ``mdist`` is not defined for
    this scheme and stays ``nan``.
    """
    x, y = _start_point(problem, x0, y0)
    _check_fields(FbParams, tau=tau, max_iters=max_iters, record_every=record_every)
    for name, value in (("alpha1", alpha1), ("alpha2", alpha2)):
        _Domain("real").check(name, value)
    if problem.L_f + problem.k_norm == 0:
        raise DegenerateProblem("the forward map is zero: L_f + ||K|| = 0")
    if tau is None:
        tau = fbf_default_step(problem)
    if tau >= 1.0 / (problem.L_f + problem.k_norm):
        raise ConstraintViolation(
            "forward-backward-forward step must satisfy tau * (L_f + ||K||) < 1"
        )
    x, y = x[:, None], y[:, None]
    x_prev, y_prev = x.copy(), y.copy()
    design = problem.loss.A
    ax = design.apply(x)
    erg = _ErgodicMean(x, ax)

    def step(k):
        nonlocal x, y, x_prev, y_prev, ax
        x_new, y_new = fbf_step(problem, tau, x, y, x_prev, y_prev, alpha1, alpha2, ax)
        res = np.sqrt(np.sum((x_new - x) ** 2, axis=0) + np.sum((y_new - y) ** 2, axis=0))
        x_prev, y_prev = x, y
        x, y = x_new, y_new
        ax = design.apply(x)
        erg.add(1.0, x, ax)
        return x, y, res

    def row(k, res, which):
        return [erg.row(problem, j, _column(x, j), _column(ax, j), res[j], np.nan)
                for j in which]

    [trace], [k], [converged] = _drive(step, row, max_iters, record_every, TRACE_COLUMNS,
                                       tol=tol)
    x, y = x[:, 0], y[:, 0]
    return FbResult(x=x, y=y, x_tilde=x, y_tilde=y, trace=trace, iterations=int(k),
                    converged=bool(converged), tau=float(tau), sigma=float(tau), rho=1.0)
