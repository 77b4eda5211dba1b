"""Stochastic-oracle variants of the accelerated iteration.

The gradient and the coupling products of the accelerated update may be
replaced by unbiased estimates drawn from an oracle with three channels:
the gradient, ``K`` and ``K'``.  The step arithmetic is shared with the
deterministic module (the same core runs with estimate-drawing callbacks),
so each coupling draw estimates ``K`` or ``K'`` at the combined argument the
folded step forms, and a zero-variance oracle reproduces a deterministic
run bitwise.

Convergence is established for the modes whose primal extrapolation
operator is exactly ``-K`` (``kappa`` mode at 1 and ``chen``); other modes
require the caller to opt in explicitly.

The noisy schedules are instances of the deterministic module's
:class:`~pdsplit.accel.Schedule` with noise levels set, built by the same
:meth:`~pdsplit.accel.Schedule.build`, so both share the laws, the
inequality checks, the input checks and the constant ``Q``.  A run takes
each noise level from its parameters or, when they leave it unset, as its
oracle declares it.

:func:`run_stoc` advances all its seeds together as one block iterate, a
``(dim, B)`` array with one column per seed, by :func:`stoc_accel_step`
through the accelerated module's block recursion, whose one-column case is
:func:`~pdsplit.accel.run_accel`, and so through the one iteration loop of
:mod:`pdsplit.fb`.  A step makes the products of one single-seed step,
whatever the seed count: every operator, prox and loss gradient maps a
block column by column, and one oracle draws every seed's estimate from
that seed's own stream.  Each seed keeps its own result and trace, stamped
with its seed, and the cross-seed aggregate is built from the per-seed
traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .accel import (
    SETTINGS,
    Schedule,
    _MODES,
    _accel_core,
    _check_needs,
    _run_schedule,
    mode_coefficients,
    mode_factors,
)
from .errors import ConstraintViolation, DimensionError, UnsupportedMode
from .errors import _arg, _check_fields, _Domain
from .fb import IterTrace, _start_point

AGGREGATE_COLUMNS = ["k", "mean_objective", "median_objective", "q10", "q90"]

# The domains of the masked oracle's keep probability and of each seed key.
_PI = _Domain("real", "(0, 1]")
_SEED = _Domain("index", "[0, inf)")


@dataclass
class StocParams:
    """Configuration of a stochastic accelerated run.

    The horizon ``N`` fixes the step denominators in both settings; a run
    performs ``N - 1`` steps so the final iterate carries index ``N``.

    Fields are checked at construction, as in :class:`~pdsplit.accel.AccelParams`.

    Attributes
    ----------
    mode, kappa : str, float
        Operator mode, as in the deterministic module, and a continuum
        position in ``[-1, 1]``.
    setting : str
        ``"bounded"`` (needs ``omega_x``/``omega_y``) or ``"unbounded"``
        (needs ``r_tilde``, an anchor-radius estimate); both finite and
        positive.
    horizon : int or None
        The horizon ``N``, an integer of at least 2; a run needs it.
    q, r, s, t : float
        Splitting parameters in ``(0, 1)`` with ``q < s`` and ``r < t``
        (``r < 1/2`` in the unbounded setting).
    chi_x, chi_y : float or None
        Noise levels of the primal and dual estimate channels, finite and
        nonnegative; ``None`` defers to the oracle's declared level.
    record_every : int
        Trace row cadence, a positive integer.
    unproven : bool
        Allow modes without a stochastic guarantee; only a bool is taken.
    """

    mode: str = _arg("kappa", "word", words=_MODES)
    kappa: float = _arg(1.0, "real", "[-1, 1]")
    setting: str = _arg("bounded", "word", words=SETTINGS)
    omega_x: float | None = _arg(None, "real", "(0, inf)")
    omega_y: float | None = _arg(None, "real", "(0, inf)")
    horizon: int | None = _arg(None, "index", "[2, inf)")
    q: float = _arg(0.25, "real", "(0, 1)")
    r: float = _arg(0.2, "real", "(0, 1)")
    s: float = _arg(0.75, "real", "(0, 1)")
    t: float = _arg(0.8, "real", "(0, 1)")
    chi_x: float | None = _arg(None, "real", "[0, inf)")
    chi_y: float | None = _arg(None, "real", "[0, inf)")
    r_tilde: float | None = _arg(None, "real", "(0, inf)")
    record_every: int = _arg(1, "index", "[1, inf)")
    unproven: bool = _arg(False, "bool")

    def __post_init__(self):
        _check_fields(self)


class StochasticOracle:
    """Interface for unbiased estimate draws on three channels.

    The channels are the gradient (``grad``), the primal-to-dual coupling
    ``K x`` (``kx``) and the dual-to-primal coupling ``K' y`` (``ky``).
    Each method call draws a fresh estimate; the argument is a point or, in
    a multi-seed run, a block with one point per column, each column drawn
    from its own seed's stream.  The expectations must equal the exact
    products for every argument, because the accelerated step
    draws each coupling estimate at a combined argument that folds in the
    mode's auxiliary operators.  Implementations declare their noise levels
    as ``chi_x``, which bounds the root mean squared deviation of the primal
    estimate (the gradient draw and the ``K' y`` draw together), and
    ``chi_y``, which bounds that of the dual estimate (the ``K x`` draw),
    over the region the iterates can visit.  ``None`` means undeclared: a
    run then needs the level in its parameters.
    """

    chi_x: float | None = None
    chi_y: float | None = None

    def grad(self, x):
        """Estimate of the smooth-part gradient at ``x``."""
        raise NotImplementedError

    def kx(self, x):
        """Estimate of ``K x``."""
        raise NotImplementedError

    def ky(self, y):
        """Estimate of ``K' y``."""
        raise NotImplementedError


class MaskedGradOracle(StochasticOracle):
    """Coordinate-masked gradient oracle with exact coupling products.

    The gradient is evaluated at a masked point: each coordinate of the
    argument survives with probability ``pi`` and is scaled by ``1 / pi``,
    which makes the masked point unbiased for the argument (and the draw
    unbiased whenever the gradient is linear).  All coupling products are
    exact, so only the gradient channel carries noise, and at ``pi = 1``
    every draw is exact.

    The declared primal noise level ``chi_x`` combines the Lipschitz
    modulus with the mask variance: the masked point deviates from ``x`` by
    ``sqrt((1 - pi) / pi) ||x||`` in root mean square, so over arguments
    with ``||x|| <= radius`` the deviation of the draw is bounded by
    ``L_f sqrt((1 - pi) / pi) radius``.  The dual level ``chi_y`` is 0.

    One oracle serves every seed of a run: it keeps a counter-based
    generator per seed, and a draw at a block gives column ``j`` the mask
    that seed ``j``'s own oracle would draw at that column, followed by one
    block gradient.

    Parameters
    ----------
    problem : SaddleProblem
    pi : float
        Keep probability in ``(0, 1]``.
    seed : int or sequence of int
        Key of the counter-based generator, a nonnegative integer, or one
        key per block column.
    radius : float
        Bound on the norm of gradient arguments, used only for the
        declared noise level.
    """

    def __init__(self, problem, pi, seed, radius=1.0):
        _PI.check("pi", pi)
        _Domain("real", "(0, inf)").check("radius", radius)
        self.problem = problem
        self.pi = float(pi)
        self.radius = float(radius)
        seeds = [seed] if np.ndim(seed) == 0 else list(seed)
        for s in seeds:
            _SEED.check("seed", s)
        self.rngs = [np.random.Generator(np.random.Philox(s)) for s in seeds]
        self.chi_x = float(problem.L_f * np.sqrt((1.0 - self.pi) / self.pi) * self.radius)
        self.chi_y = 0.0

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        if (x.shape[1] if x.ndim == 2 else 1) != len(self.rngs):
            raise DimensionError(
                f"an oracle of {len(self.rngs)} seeds cannot draw at shape {x.shape}"
            )
        p = self.problem.dims[0]
        draws = np.array([rng.random(p) for rng in self.rngs]).T
        mask = (draws < self.pi).reshape(x.shape).astype(float) / self.pi
        return self.problem.loss.grad(mask * x)

    def kx(self, x):
        return self.problem.K.apply(x)

    def ky(self, y):
        return self.problem.K.apply_adjoint(y)


def masked_oracle_factory(problem, params, pi):
    """Factory of masked-gradient oracles matching a parameter set.

    ``factory(seed)`` takes one seed or a list of seeds, one per block
    column.  The declaration radius follows the setting: the primal norm
    bound when given, otherwise the anchor-radius estimate, otherwise one.
    """
    radius = params.omega_x if params.omega_x is not None else params.r_tilde
    if radius is None:
        radius = 1.0

    def factory(seed):
        return MaskedGradOracle(problem, pi, seed, radius=radius)

    return factory


def stoc_gap_bound(schedule):
    """Expected-gap bound at the horizon iterate of a bounded noisy run."""
    if schedule.setting != "bounded":
        raise ConstraintViolation("the gap bound is stated for the bounded setting")
    n = float(schedule.horizon)
    root = np.sqrt(n - 1.0)
    return (
        8.0 * schedule.P * schedule.l_f * schedule.omega_x**2 / (n * (n - 1.0))
        + 4.0 * schedule.k_norm * schedule.omega_x * schedule.omega_y * (schedule.Q + 1.0) / n
        + (4.0 * schedule.chi_x * schedule.omega_x + 4.0 * schedule.chi_y * schedule.omega_y)
        / root
        + (2.0 - schedule.r)
        * schedule.omega_x
        * schedule.chi_x
        / (3.0 * (1.0 - schedule.r) * root)
        + (2.0 - schedule.s)
        * schedule.omega_y
        * schedule.chi_y
        / (3.0 * (1.0 - schedule.s) * root)
    )


def check_proven_mode(params):
    """Raise unless the mode carries a stochastic guarantee (or opted out).

    The guarantee needs the primal extrapolation operator to equal ``-K``,
    that is ``alpha = 1``: mode ``kappa`` at exactly 1, or mode ``chen``.
    """
    alpha, _ = mode_coefficients(params.mode, params.kappa)
    if alpha != 1.0 and not params.unproven:
        raise UnsupportedMode(
            f"mode {params.mode!r} (kappa = {params.kappa}) has no stochastic "
            "guarantee; pass unproven to run it anyway"
        )


def build_stoc_schedule(problem, params):
    """Construct the noisy schedule requested by ``params``.

    A missing horizon is refused first, then an unresolved noise level
    (``None``).  A bounded schedule reads the iterate-norm bounds, an
    unbounded one the anchor-radius estimate ``r_tilde``.
    """
    _check_needs(params.setting, True, params.horizon, params.omega_x, params.omega_y,
                 params.r_tilde)
    if params.chi_x is None or params.chi_y is None:
        raise ConstraintViolation("noise levels are unresolved: neither given nor declared")
    factors = mode_factors(params.mode, params.kappa)
    bounded = params.setting == "bounded"
    return Schedule.build(
        params.setting, problem.L_f, problem.k_norm, factors, params.q, params.r,
        s=params.s, t=params.t, horizon=params.horizon,
        omega_x=params.omega_x if bounded else None,
        omega_y=params.omega_y if bounded else None,
        chi_x=params.chi_x, chi_y=params.chi_y,
        r_tilde=None if bounded else params.r_tilde,
    )


def stoc_accel_step(problem, oracle, alpha, beta, schedule, k, state):
    """One stochastic accelerated update at iteration index ``k``.

    Runs the deterministic step core with the oracle's estimate draws in
    place of the exact products: one gradient draw at the averaged point
    and one ``K`` or ``K'`` draw per coupling product of the folded step.
    ``(alpha, beta)`` are the mode's scalars from
    :func:`~pdsplit.accel.mode_coefficients`.
    """
    return _accel_core(
        oracle.grad,
        oracle.kx,
        oracle.ky,
        problem.hconj.prox,
        alpha,
        beta,
        schedule,
        k,
        state,
    )


@dataclass
class StocResult:
    """Outcome of a multi-seed stochastic run.  The noise levels that the
    run took are its schedule's ``chi_x`` and ``chi_y``."""

    runs: list
    aggregate: IterTrace
    schedule: Schedule


def run_stoc(problem, params, oracle_factory, seeds, x0=None, y0=None):
    """Run the stochastic accelerated iteration over one or more seeds.

    All seeds run ``horizon - 1`` steps under one shared schedule, advanced
    together as the columns of one block iterate: ``oracle_factory(seeds)``
    is called once and must return an oracle whose draws at a block give
    column ``j`` the estimate of seed ``seeds[j]``, from that seed's own
    stream.  Column ``j`` therefore follows the run of seed ``seeds[j]``
    alone bitwise, as every block product is column-exact.  Each noise level
    is taken from ``params`` when given, else as the oracle declares it
    (:class:`StochasticOracle`).  A seed whose pair leaves the finite
    range raises :class:`~pdsplit.errors.NonFiniteIterate` naming the seed
    at the first such step.

    Returns
    -------
    StocResult
        Per-seed results in ``seeds`` order (``seed``-stamped traces), and an aggregate
        trace of the averaged-point objective across seeds: mean, median,
        and the 10/90 percent quantiles per recorded index.

    Raises
    ------
    ConstraintViolation
        Before any draw, if ``seeds`` is empty or holds a seed that is not
        an integer (a bool is not one) or that repeats, if the horizon or an
        input of the setting is missing, or if a noise level is neither
        given nor declared.
    """
    check_proven_mode(params)
    seeds = list(seeds)
    if not seeds:
        raise ConstraintViolation("run_stoc needs at least one seed")
    for j, seed in enumerate(seeds):
        _Domain("index").check("seeds", seed)
        if seed in seeds[:j]:
            raise ConstraintViolation(f"seed {seed} repeats")
    seeds = [int(s) for s in seeds]
    x_start, y_start = _start_point(problem, x0, y0)
    oracle = oracle_factory(seeds)
    chi_x = oracle.chi_x if params.chi_x is None else params.chi_x
    chi_y = oracle.chi_y if params.chi_y is None else params.chi_y
    resolved = replace(params, chi_x=chi_x, chi_y=chi_y)
    schedule = build_stoc_schedule(problem, resolved)

    alpha, beta = mode_coefficients(params.mode, params.kappa)
    runs = _run_schedule(
        problem,
        schedule,
        lambda k, state, table: stoc_accel_step(
            problem, oracle, alpha, beta, table, k, state
        ),
        np.repeat(x_start[:, None], len(seeds), axis=1),
        np.repeat(y_start[:, None], len(seeds), axis=1),
        resolved.horizon - 1,
        resolved.record_every,
        stamps=[{"seed": s} for s in seeds],
    )

    values = np.asarray([run.trace.column("ergodic_objective") for run in runs])
    summary = (
        runs[0].trace.column("k"),
        values.mean(axis=0),
        np.median(values, axis=0),
        np.quantile(values, 0.1, axis=0),
        np.quantile(values, 0.9, axis=0),
    )
    aggregate = IterTrace(AGGREGATE_COLUMNS)
    for row in zip(*summary):
        aggregate.append(**dict(zip(AGGREGATE_COLUMNS, row)))
    return StocResult(runs=runs, aggregate=aggregate, schedule=schedule)
