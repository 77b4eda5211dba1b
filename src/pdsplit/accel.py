"""Accelerated variants with vanishing step schedules.

The accelerated iteration extrapolates the coupling products with two
auxiliary operators ``A`` (primal side) and ``B`` (dual side) and averages
iterates with vanishing weights.  Each mode fixes both operators as signed
multiples of ``K``, ``A = -alpha K`` and ``B = beta K``, through the scalar
pair ``(alpha, beta)`` of :func:`mode_coefficients`:

* ``kappa``: ``(kappa, kappa)``, matching the preconditioner continuum of
  the base iteration;
* ``chen``: ``(1, 0)``, the gradient-extrapolation scheme.

By linearity the step folds every ``A`` and ``B`` term onto products with
``K`` and ``K'`` at combined arguments: two ``K`` and two ``K'`` products
per step, one ``K`` fewer when ``alpha = 1``.

Schedules come in a bounded-domain flavor (constant dual step, iterate-norm
bounds supplied) and an unbounded flavor (horizon-tied growing steps).  Both
satisfy two per-iteration inequalities that are asserted at construction.
:class:`Schedule` is the one schedule class: it holds those checks and the
relaxation and extrapolation laws both for this module's schedules and for
the noisy ones of :mod:`pdsplit.stoch`, which add noise levels and the
splitting parameters ``s, t < 1``.  Every schedule comes from
:meth:`Schedule.build`, which checks each input and the conditions that tie
them together.

The recursion runs on a ``(dim, B)`` column block, through the one
iteration loop of :mod:`pdsplit.fb`: :func:`run_accel` is its one-column
case, and :func:`pdsplit.stoch.run_stoc` runs one column per seed.  Each
supplies only its step (:func:`accel_step`, or the stochastic one) and the
schedule columns of its trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import saddle
from .errors import ConstraintViolation, _arg, _check_fields, _Domain
from .fb import RunResult, _column, _drive, _start_point, _step_norm

ACCEL_TRACE_COLUMNS = [
    "k",
    "objective",
    "ergodic_objective",
    "residual",
    "mdist",
    "seconds",
    "tau_k",
    "sigma_k",
    "rho_k",
]

# Relative tolerance when asserting schedule inequalities whose sharp
# configurations are exactly tight in real arithmetic.
COND_TOL = 1e-12

_MODES = ("kappa", "chen")
SETTINGS = ("bounded", "unbounded")
# Last index at which a deterministic bounded schedule, which has no horizon,
# asserts its inequalities by default.
BOUNDED_CHECK_UP_TO = 10000


@dataclass
class AccelParams:
    """Configuration of an accelerated run.

    At construction an unknown mode or setting raises
    :class:`~pdsplit.errors.UnknownKind` and another field outside its
    declared domain :class:`ConstraintViolation` naming it (a bool is not a
    number).

    Attributes
    ----------
    mode : str
        ``"kappa"`` or ``"chen"``.
    kappa : float
        Continuum position for the ``kappa`` mode, a number in ``[-1, 1]``.
    setting : str
        ``"bounded"`` (needs ``omega_x``/``omega_y``) or ``"unbounded"``
        (needs ``horizon``).
    omega_x, omega_y : float or None
        Iterate-norm bounds of the bounded setting, finite and positive.
    horizon : int or None
        Step horizon ``N`` of the unbounded setting, an integer of at least
        2; the run performs ``N`` steps.
    q, r : float
        Splitting parameters of the schedule inequalities, in ``(0, 1)``.
    max_iters : int or None
        Step count, a nonnegative integer, for bounded runs, which need it
        (unbounded runs take the horizon, or this count when smaller).
    record_every : int
        Trace row cadence, a positive integer.
    """

    mode: str = _arg("kappa", "word", words=_MODES)
    kappa: float = _arg(0.0, "real", "[-1, 1]")
    setting: str = _arg("bounded", "word", words=SETTINGS)
    omega_x: float | None = _arg(None, "real", "(0, inf)")
    omega_y: float | None = _arg(None, "real", "(0, inf)")
    horizon: int | None = _arg(None, "index", "[2, inf)")
    q: float = _arg(0.5, "real", "(0, 1)")
    r: float = _arg(0.25, "real", "(0, 1)")
    max_iters: int | None = _arg(None, "index", "[0, inf)")
    record_every: int = _arg(1, "index", "[1, inf)")

    def __post_init__(self):
        _check_fields(self)


def mode_coefficients(mode, kappa=0.0):
    """Signed scalars ``(alpha, beta)`` of a mode: ``A = -alpha K``, ``B = beta K``.

    ``kappa`` mode gives ``(kappa, kappa)`` and ``chen`` gives ``(1, 0)``.

    Raises
    ------
    ConstraintViolation
        If ``kappa`` is not a number in ``[-1, 1]`` (a bool is not one).
    ~pdsplit.errors.UnknownKind
        If the mode is neither ``kappa`` nor ``chen``.
    """
    _check_fields(AccelParams, mode=mode, kappa=kappa)
    if mode == "chen":
        return 1.0, 0.0
    return float(kappa), float(kappa)


def mode_factors(mode, kappa=0.0):
    """Norm factors ``(a, b, c, d)`` of the mode's auxiliary operators.

    They scale the coupling norm: ``||A|| = a ||K||``, ``||B|| = b ||K||``,
    ``||K + A|| = c ||K||``, ``||K + B|| = d ||K||``.
    """
    alpha, beta = mode_coefficients(mode, kappa)
    return abs(alpha), abs(beta), abs(1.0 - alpha), abs(1.0 + beta)


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def _noise_scale(s, t, chi_x, chi_y):
    """The combined noise level in the steps of an unbounded noisy schedule."""
    return float(
        np.sqrt((2.0 - s) / (1.0 - s) * chi_x**2 + (2.0 - t) / (1.0 - t) * chi_y**2)
    )


@dataclass
class Schedule:
    """Step, relaxation, and extrapolation schedule, deterministic or noisy.

    ``rho``, ``theta``, ``tau``, and ``sigma`` accept scalar or ndarray
    iteration indices.  ``P`` and ``Q`` are the schedule constants entering
    the convergence bounds.  Relaxation is ``rho = 2 / (k + 1)`` and
    extrapolation ``theta = (k - 1) / k``; the two per-iteration
    inequalities have the budgets ``(s - q, t - r)``.

    The schedule is deterministic when ``chi_x`` is ``None``, with
    ``s = t = 1``.  A noisy schedule carries the noise levels
    ``chi_x``/``chi_y`` (and, unbounded, the anchor-radius estimate
    ``r_tilde``); both its steps grow linearly in ``k`` against constant
    horizon-tied denominators, so its step ratio matches ``theta`` exactly.
    """

    setting: str
    q: float
    r: float
    P: float
    Q: float
    factors: tuple
    l_f: float
    k_norm: float
    horizon: int | None
    omega_x: float | None
    omega_y: float | None
    s: float
    t: float
    chi_x: float | None
    chi_y: float | None
    r_tilde: float | None

    @classmethod
    def build(cls, setting, l_f, k_norm, factors, q, r, *, s=1.0, t=1.0, horizon=None,
              omega_x=None, omega_y=None, chi_x=None, chi_y=None, r_tilde=None):
        """Check the inputs of any schedule, build it and assert its inequalities.

        The schedule is noisy when ``chi_x`` is given and then needs a
        horizon, as the unbounded setting does.
        The bounded setting reads ``omega_x``/``omega_y``, a noisy unbounded
        one ``r_tilde``.  The inequalities are asserted on the indices a run
        steps through (``1..horizon``, or ``1..horizon - 1`` when noisy) and
        on ``1..BOUNDED_CHECK_UP_TO`` for a deterministic bounded schedule.
        The inputs named like :class:`AccelParams` fields take their
        domains, ``s`` and ``t`` take ``(0, 1]``, ``r_tilde`` and the noise
        levels finite positive and nonnegative numbers.  An unknown
        ``setting`` raises :class:`~pdsplit.errors.UnknownKind`, any other
        bad input :class:`ConstraintViolation`.
        """
        noisy = chi_x is not None
        _check_fields(AccelParams, setting=setting, q=q, r=r, horizon=horizon,
                      omega_x=omega_x, omega_y=omega_y)
        for name, value in (("s", s), ("t", t)):
            _Domain("real", "(0, 1]").check(name, value)
        _Domain("real", "(0, inf)", none=True).check("r_tilde", r_tilde)
        _check_needs(setting, noisy, horizon, omega_x, omega_y, r_tilde)
        horizon = None if horizon is None else int(horizon)
        r_tilde = None if r_tilde is None else float(r_tilde)
        if noisy:
            for name, value in (("chi_x", chi_x), ("chi_y", chi_y)):
                _Domain("real", "[0, inf)").check(name, value)
            chi_x, chi_y = float(chi_x), float(chi_y)
        if not q < s:
            raise ConstraintViolation(f"need 0 < q < s <= 1, got q = {q}, s = {s}")
        if not r < t:
            raise ConstraintViolation(f"need 0 < r < t <= 1, got r = {r}, t = {t}")
        if setting == "unbounded" and r >= 0.5:
            raise ConstraintViolation(f"r must stay below 0.5 when unbounded, got {r}")
        if noisy and not (s < 1.0 and t < 1.0):
            raise ConstraintViolation(f"noisy schedules need s, t < 1, got {s}, {t}")
        if not k_norm > 0:
            raise ConstraintViolation("coupling norm must be positive")
        q_const = _q_constant(factors, q, r, s, t, floor_one=setting == "unbounded")
        sched = cls(setting=setting, q=q, r=r, P=1.0 / (s - q), Q=float(q_const),
                    factors=tuple(factors), l_f=l_f, k_norm=k_norm, horizon=horizon,
                    omega_x=omega_x, omega_y=omega_y, s=s, t=t, chi_x=chi_x,
                    chi_y=chi_y, r_tilde=r_tilde)
        check_up_to = (horizon - 1 if noisy else
                       BOUNDED_CHECK_UP_TO if setting == "bounded" else horizon)
        sched.assert_conditions(np.arange(1, check_up_to + 1))
        return sched

    def budgets(self):
        return self.s - self.q, self.t - self.r

    def rho(self, k):
        k = np.asarray(k, dtype=float)
        return _scalar_or_array(2.0 / (k + 1.0))

    def theta(self, k):
        k = np.asarray(k, dtype=float)
        return _scalar_or_array((k - 1.0) / k)

    def tau(self, k):
        k = np.asarray(k, dtype=float)
        if self.chi_x is None:
            if self.setting == "bounded":
                den = 2.0 * self.P * self.l_f + k * self.Q * self.k_norm * (
                    self.omega_y / self.omega_x
                )
            else:
                den = 2.0 * self.P * self.l_f + self.Q * self.horizon * self.k_norm
            return _scalar_or_array(k / den)
        n = float(self.horizon)
        if self.setting == "bounded":
            den = (
                2.0 * self.P * self.l_f * self.omega_x
                + self.Q * self.k_norm * self.omega_y * (n - 1.0)
                + self.chi_x * n * np.sqrt(n - 1.0)
            )
            return _scalar_or_array(self.omega_x * k / den)
        chi = _noise_scale(self.s, self.t, self.chi_x, self.chi_y)
        den = (
            2.0 * self.P * self.l_f
            + self.Q * self.k_norm * (n - 1.0)
            + n * np.sqrt(n - 1.0) * chi / self.r_tilde
        )
        return _scalar_or_array(k / den)

    def sigma(self, k):
        k = np.asarray(k, dtype=float)
        if self.chi_x is None:
            if self.setting == "bounded":
                out = np.full_like(k, self.omega_y / (self.k_norm * self.omega_x))
            else:
                out = k / (self.horizon * self.k_norm)
            return _scalar_or_array(out)
        n = float(self.horizon)
        if self.setting == "bounded":
            den = self.k_norm * self.omega_x * (n - 1.0) + self.chi_y * n * np.sqrt(
                n - 1.0
            )
            return _scalar_or_array(self.omega_y * k / den)
        chi = _noise_scale(self.s, self.t, self.chi_x, self.chi_y)
        den = self.k_norm * (n - 1.0) + n * np.sqrt(n - 1.0) * chi / self.r_tilde
        return _scalar_or_array(k / den)

    def condition_margins(self, k):
        """Margins of the two schedule inequalities at index ``k``.

        Both must stay nonnegative: the primal one controls the curvature
        and primal extrapolation budget, the dual one the coupling budget.
        """
        a, b, c, d = self.factors
        tau = self.tau(k)
        sigma = self.sigma(k)
        primal, dual = self.budgets()
        bq = (b * b / self.q) if b > 0 else 0.0
        m1 = (
            primal / tau
            - self.l_f * self.rho(k)
            - (a * self.k_norm) ** 2 * sigma / self.r
        )
        m2 = dual / sigma - tau * (2.0 * c * d + bq) * self.k_norm**2
        return m1, m2

    def assert_conditions(self, ks):
        """Raise unless both inequalities hold (to rounding) on ``ks``."""
        ks = np.asarray(ks, dtype=float)
        m1, m2 = self.condition_margins(ks)
        a, _, _, _ = self.factors
        primal, dual = self.budgets()
        scale1 = (
            primal / self.tau(ks)
            + self.l_f * self.rho(ks)
            + (a * self.k_norm) ** 2 * self.sigma(ks) / self.r
        )
        scale2 = dual / self.sigma(ks) + np.abs(m2 - dual / self.sigma(ks))
        bad1 = m1 < -COND_TOL * scale1
        bad2 = m2 < -COND_TOL * scale2
        if np.any(bad1) or np.any(bad2):
            k_bad = ks[np.argmax(bad1 | bad2)]
            raise ConstraintViolation(
                f"schedule inequalities fail at k = {k_bad:g}"
            )


class ScheduleTable:
    """A schedule's ``tau``, ``sigma``, ``rho`` and ``theta`` at ``k = 1..n``.

    The laws are evaluated once, on the index vector, and read back by
    index, so a run pays no schedule arithmetic per step.  Elementwise IEEE
    arithmetic makes every entry bitwise equal to the scalar call, so the
    table stands in for its schedule wherever only those four laws are read
    at integer indices in range (index 0 reads ``nan``).
    """

    def __init__(self, schedule, n):
        ks = np.arange(1, n + 1, dtype=float)
        self.tau, self.sigma, self.rho, self.theta = (
            np.concatenate([[np.nan], law(ks)]).item
            for law in (schedule.tau, schedule.sigma, schedule.rho, schedule.theta)
        )


def _q_constant(factors, q, r, s, t, floor_one):
    """The schedule constant ``Q``, elementwise over arrays ``q`` and ``r``.

    ``max(a^2 / ((s - q) r), (2 c d + b^2 / q) / (t - r))``, floored at one
    when ``floor_one``; deterministic schedules take ``s = t = 1``.
    """
    a, b, c, d = factors
    bq = np.where(b > 0, b * b / q, 0.0)
    q_const = np.maximum(a * a / ((s - q) * r), (2.0 * c * d + bq) / (t - r))
    return np.maximum(q_const, 1.0) if floor_one else q_const


def _check_needs(setting, noisy, horizon, omega_x, omega_y, r_tilde=None):
    """Refuse a schedule without an input it needs: a noisy or unbounded one
    a horizon, a bounded one the iterate-norm bounds, a noisy unbounded one
    ``r_tilde``."""
    if horizon is None and (noisy or setting == "unbounded"):
        raise ConstraintViolation(
            "stochastic runs need a horizon" if noisy else "unbounded setting needs a horizon")
    needs = {"omega_x": omega_x, "omega_y": omega_y} if setting == "bounded" else (
        {"r_tilde": r_tilde} if noisy else {})
    for name, value in needs.items():
        if value is None:
            raise ConstraintViolation(f"{setting} setting needs {name}")


def _gap_bound(p_const, q_const, l_f, k_norm, omega_x, omega_y, k):
    """The bounded-setting gap bound at index ``k`` (see :func:`bounded_gap_bound`)."""
    return (
        4.0 * p_const * omega_x**2 * l_f / (k * (k - 1.0))
        + 2.0 * omega_x * omega_y * (q_const + 1.0) * k_norm / k
    )


def _energy_factor(q, r):
    """The factor ``2 + q/(1-q) + (2r+1)/(1-2r)`` of the perturbation energy."""
    return 2.0 + q / (1.0 - q) + (2.0 * r + 1.0) / (1.0 - 2.0 * r)


def bounded_gap_bound(schedule, k):
    """Bounded-setting optimality-gap bound at iterate index ``k``.

    ``4 P omega_x^2 L_f / (k (k - 1)) + 2 omega_x omega_y (Q + 1) ||K|| / k``
    for ``k >= 2``.
    """
    k = float(k)
    if k < 2:
        raise ConstraintViolation("the bounded gap bound starts at k = 2")
    return _gap_bound(schedule.P, schedule.Q, schedule.l_f, schedule.k_norm,
                      schedule.omega_x, schedule.omega_y, k)


def tune_qr(setting, l_f, k_norm, factors, horizon, omega_x=None, omega_y=None):
    """Pick ``(q, r)`` minimizing the horizon bound on a 0.01 grid.

    Bounded runs minimize the gap bound at the horizon; unbounded runs
    minimize the perturbation-energy bound.  Ties break toward smaller
    ``q``, then smaller ``r``.
    """
    _check_fields(AccelParams, setting=setting, omega_x=omega_x, omega_y=omega_y)
    _Domain("index", "[2, inf)").check("horizon", horizon)
    _check_needs(setting, False, horizon, omega_x, omega_y)
    bounded = setting == "bounded"
    grid = np.arange(1, 100) * 0.01
    r_grid = grid if bounded else grid[grid < 0.5]
    qq, rr = np.meshgrid(grid, r_grid, indexing="ij")
    q_const = _q_constant(factors, qq, rr, 1.0, 1.0, floor_one=not bounded)
    p_const = 1.0 / (1.0 - qq)
    if bounded:
        obj = _gap_bound(p_const, q_const, l_f, k_norm, omega_x, omega_y, horizon)
    else:
        obj = ((4.0 * p_const * l_f / horizon**2 + 2.0 * q_const * k_norm / horizon)
               * _energy_factor(qq, rr))
    best = obj.min()
    ties = np.argwhere(obj == best)
    # Ties resolve toward the smallest q, then the smallest r; the row-major
    # order of argwhere on the (q, r) grid delivers exactly that.
    i, j = ties[0]
    return float(grid[i]), float(r_grid[j])


@dataclass
class AccelState:
    """Iterate bundle of the accelerated recursion.

    Holds the averaged pair ``(x, y)``, the current resolvent pair
    ``(xt, yt)``, and the previous resolvent pair for extrapolation.
    """

    x: np.ndarray
    y: np.ndarray
    xt: np.ndarray
    yt: np.ndarray
    xt_prev: np.ndarray
    yt_prev: np.ndarray

    @classmethod
    def start(cls, x0, y0):
        return cls(x0.copy(), y0.copy(), x0.copy(), y0.copy(), x0.copy(), y0.copy())


def _accel_core(grad, k_fwd, k_adj, prox, alpha, beta, schedule, k, state):
    """One accelerated update at index ``k`` from ``K``/``K'`` callbacks.

    With ``A = -alpha K`` and ``B = beta K`` every auxiliary term folds into
    the argument of a coupling product, so a step makes two ``K`` and two
    ``K'`` products; the primal correction ``(K + A) w = (1 - alpha) K w``
    is skipped when ``alpha = 1``, where its coefficient is exactly zero.
    The stochastic variant runs this exact function with estimate-drawing
    callbacks, so a zero-variance oracle reproduces deterministic runs
    bitwise.  Only the four laws of ``schedule`` are read, so it may be a
    schedule or its :class:`ScheduleTable`.
    """
    tau = schedule.tau(k)
    tau_prev = schedule.tau(k - 1) if k > 1 else 0.0
    sigma = schedule.sigma(k)
    rho = schedule.rho(k)
    theta = schedule.theta(k)
    dxt = state.xt - state.xt_prev
    dyt = state.yt - state.yt_prev
    u_bar = k_fwd(state.xt + theta * alpha * dxt)
    v_bar = k_adj(state.yt + theta * ((tau_prev / tau) * (1.0 + beta) - beta) * dyt)
    x_md = (1.0 - rho) * state.x + rho * state.xt
    g = grad(x_md)
    u_new = u_bar
    if alpha != 1.0:
        u_new = u_bar - tau * (1.0 - alpha) * k_fwd(g + v_bar)
    yt_new = prox(state.yt + sigma * u_new, sigma)
    vt_new = k_adj((1.0 + beta) * yt_new - beta * state.yt - theta * beta * dyt)
    xt_new = state.xt - tau * (g + vt_new)
    x_new = (1.0 - rho) * state.x + rho * xt_new
    y_new = (1.0 - rho) * state.y + rho * yt_new
    return AccelState(x_new, y_new, xt_new, yt_new, state.xt, state.yt)


def accel_step(problem, alpha, beta, schedule, k, state):
    """One deterministic accelerated update at iteration index ``k``.

    ``(alpha, beta)`` are the mode's scalars from :func:`mode_coefficients`;
    ``schedule`` is a :class:`Schedule` or its :class:`ScheduleTable`.
    """
    return _accel_core(
        problem.loss.grad,
        problem.K.apply,
        problem.K.apply_adjoint,
        problem.hconj.prox,
        alpha,
        beta,
        schedule,
        k,
        state,
    )


@dataclass
class AccelResult(RunResult):
    """Outcome of an accelerated run, whose ``(x, y)`` is the averaged pair,
    with the schedule it ran."""

    schedule: Schedule


def build_schedule(problem, params):
    """Construct the schedule requested by ``params`` for ``problem``.

    A bounded schedule reads the iterate-norm bounds and an unbounded one
    the horizon.
    """
    factors = mode_factors(params.mode, params.kappa)
    bounded = params.setting == "bounded"
    return Schedule.build(
        params.setting, problem.L_f, problem.k_norm, factors, params.q, params.r,
        horizon=None if bounded else params.horizon,
        omega_x=params.omega_x if bounded else None,
        omega_y=params.omega_y if bounded else None,
    )


def _run_schedule(problem, schedule, advance, x, y, n_steps, record_every, stamps=({},)):
    """Accelerated recursion of a block pair through the shared driver.

    ``advance(k, state, table)`` is the step, where ``table`` is the
    schedule tabulated over the run's ``n_steps`` indices.  ``(x, y)`` is a
    block pair with one column per ``stamps`` entry, and every step advances
    all columns at once.  Each column gets its own result, whose trace adds
    the constant columns of its entry after ``ACCEL_TRACE_COLUMNS`` and
    whose rows are evaluated on contiguous copies of its columns, as a run
    on that column alone would.  A non-finite column raises, naming its
    stamps (``seed 13``).

    Returns
    -------
    list of AccelResult
        One per column, in order.
    """
    state = AccelState.start(x, y)
    table = ScheduleTable(schedule, n_steps)

    def step(k):
        nonlocal state
        state = advance(k, state, table)
        return state.xt, state.yt, _step_norm(state.xt - state.xt_prev, state.yt - state.yt_prev)

    def row(k, res, which):
        return [dict(
            objective=saddle.primal_objective(problem, _column(state.xt, j)),
            ergodic_objective=saddle.primal_objective(problem, _column(state.x, j)),
            residual=res[j],
            mdist=np.nan,
            tau_k=table.tau(k),
            sigma_k=table.sigma(k),
            rho_k=table.rho(k),
            **stamps[j],
        ) for j in which]

    names = ACCEL_TRACE_COLUMNS + list(stamps[0])
    labels = [" ".join(f"{key} {value}" for key, value in stamp.items()) for stamp in stamps]
    traces, ks, _ = _drive(step, row, n_steps, record_every, names, labels)
    arrays = (state.x, state.y, state.xt, state.yt)
    return [
        AccelResult(*(a[:, j].copy() for a in arrays),
                    trace=trace, iterations=int(ks[j]), schedule=schedule)
        for j, trace in enumerate(traces)
    ]


def run_accel(problem, params, x0=None, y0=None):
    """Run the accelerated iteration.

    Bounded runs take ``params.max_iters`` steps; unbounded runs take
    ``params.horizon`` steps, or ``max_iters`` when smaller.  The trace's ``objective`` column tracks the
    resolvent point and ``ergodic_objective`` the averaged point carrying
    the rate guarantee.

    Returns
    -------
    AccelResult
    """
    x, y = _start_point(problem, x0, y0)
    schedule = build_schedule(problem, params)
    bounded = params.setting == "bounded"
    if bounded and params.max_iters is None:
        raise ConstraintViolation("bounded runs need max_iters")
    n_steps = min(n for n in (params.max_iters, None if bounded else params.horizon)
                  if n is not None)
    alpha, beta = mode_coefficients(params.mode, params.kappa)
    [result] = _run_schedule(
        problem,
        schedule,
        lambda k, state, table: accel_step(problem, alpha, beta, table, k, state),
        x[:, None],
        y[:, None],
        n_steps,
        params.record_every,
    )
    return result
