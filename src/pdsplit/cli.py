"""Batch experiment runner.

Four verbs cover the workflow: ``run`` executes one configured experiment
(plain, inertial benchmark, accelerated, or stochastic) and writes trace and
summary CSVs; ``region-scan`` sweeps a step-size grid per continuum position
and records predicted against observed convergence; ``gen`` emits a problem
bundle; ``reference`` computes and stores a high-accuracy solution.

Configuration is flat ``key=value`` text (``#`` comments and blank lines
allowed); values may use JSON escaping where needed.  A key that names a field
of a record (:class:`~pdsplit.bench.SyntheticSpec`, ``FbParams``,
``AccelParams``, ``StocParams``) takes that field's domain, and the record its
own default when the key is absent; any other key is a field of
:class:`ExperimentConfig`, which declares its domain and default.  Every verb
runs its jobs one after another in the calling thread (only a large dense
product lends half its rows to :mod:`pdsplit.linops`'s worker thread), and
every artifact is written through :mod:`pdsplit.textio`; ``run`` writes each
job's trace and its summary so far as soon as that job finishes.  Exit codes:
0 on success; 1 for anything wrong in what the config gives, before any
problem, reference or output exists: an unknown, duplicate or unread key
(``_READS``), a value that cannot be read or would be coerced (a fraction for
an integer, a boolean or non-finite number for a float, an empty list, a
repeated entry), a value outside its key's domain, a negative ``--seed``,
or a missing or conflicting key; 2 for what the run meets: derived values
(a horizon taken from ``max_iters``) and solver failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import accel, bench, fb, saddle, stoch, textio
from .errors import ConfigError, InsufficientData, SolverError, _Domain
from .fb import IterTrace

# Minimum relative slack for a grid point to count as interior to its
# (valid or invalid) region during a scan.
INTERIOR_SLACK = 0.10

REGION_COLUMNS = [
    "kappa",
    "inv_tau",
    "inv_sigma",
    "tau",
    "sigma",
    "valid",
    "interior",
    "ran",
    "converged",
    "residual",
]

_SUMMARY_COLUMNS = [
    "label",
    "algorithm",
    "mode",
    "kappa",
    "setting",
    "tau",
    "sigma",
    "rho",
    "q",
    "r",
    "s",
    "t",
    "pi",
    "chi_x",
    "chi_y",
    "omega_x",
    "omega_y",
    "horizon",
    "max_iters",
    "iterations",
    "final_objective",
    "slope",
    "slope_stderr",
]


def _parse_scalar(key, value, kind):
    if isinstance(value, bool):
        raise ConfigError(f"config key {key!r}: expected a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {key!r}: cannot read {value!r} as {kind.__name__}")


def _as_int(key, value):
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key!r}: {value!r} is not an integer")
    return _parse_scalar(key, value, int)


def _as_float(key, value):
    number = _parse_scalar(key, value, float)
    if not math.isfinite(number):
        raise ConfigError(f"config key {key!r}: {value!r} is not finite")
    return number


def _as_bool(key, value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ConfigError(f"config key {key!r}: expected a boolean (0/1/true/false)")


def _as_list(key, value):
    if not isinstance(value, list):
        value = [tok.strip() for tok in str(value).split(",") if tok.strip()]
    if not value:
        raise ConfigError(f"config key {key!r}: empty list")
    return value


def _distinct(key, values):
    """``values``, once no two of them are equal."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"config key {key!r}: {value!r} is repeated")
    return values


def _as_word(key, value, words):
    value = str(value)
    if value not in words:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {sorted(words)}")
    return value


def _as_field(domain):
    """The converter of a key of ``domain``: a choice among the words of a
    word domain, else that of its number kind, which passes its words
    through."""
    if domain.kind == "word":
        return lambda key, value: _as_word(key, value, domain.words)
    convert = {"real": _as_float, "index": _as_int, "bool": _as_bool}[domain.kind]
    return lambda key, value: value if value in domain.words else convert(key, value)


def _as_entries(domain):
    """The converter of a list key: that of ``domain`` on each entry, no two
    entries equal."""
    convert = _as_field(domain)
    return lambda key, value: _distinct(key, [convert(key, tok) for tok in _as_list(key, value)])


def _declared(record, name):
    """The domain that ``record`` declares for its field ``name``."""
    return next(f.metadata["domain"] for f in fields(record) if f.name == name)


def _key(domain, default=None, listed=False):
    """A config key: the domain of its value, or with ``listed`` of each
    entry of its list, and its default when absent."""
    return field(default=default, metadata={"domain": domain, "listed": listed})


@dataclass
class ExperimentConfig:
    """Validated flat experiment configuration.

    Every field but ``given`` is one config key that no record field
    declares, or whose default differs from the record's (``max_iters``;
    :class:`~pdsplit.accel.AccelParams` has ``None``).  Each but ``bundle``
    (a path) declares the domain of its value or list entries, the runner's
    or record's own where one exists, and its default; ``None`` marks a key
    that, when absent, the verb works out or goes without.  ``given`` maps
    each key that the file gave to its converted value, which :func:`main`
    checks against the key's domain; record fields are read from it alone.
    """

    bundle: str | None = None
    problem: str | None = _key(_declared(bench.SyntheticSpec, "kind"))
    problem_seed: int | None = _key(_declared(bench.SyntheticSpec, "seed"))
    algorithm: str | None = _key(_Domain("word", words=("fb", "fbf", "accel", "stoc")))
    modes: list | None = _key(replace(_declared(fb.FbParams, "kappa"), words=("chen",)),
                              listed=True)
    alpha1: float = _key(_Domain("real"), 0.0)
    alpha2: float = _key(_Domain("real"), 0.0)
    max_iters: int = _key(_declared(fb.FbParams, "max_iters"), 1000)
    tol: float | None = _key(fb._TOL)
    seeds: list | None = _key(stoch._SEED, listed=True)
    pi: float = _key(stoch._PI, 0.5)
    reference: bool = _key(_Domain("bool"), False)
    reference_budget: int = _key(bench._BUDGET, 100000)
    kappas: list | tuple = _key(_declared(fb.FbParams, "kappa"), (0.0, 0.25, 0.5, 0.75, 1.0),
                                listed=True)
    grid: int = _key(_Domain("index", "[2, inf)"), 20)
    span_lo: float = _key(_Domain("real", "(0, inf)"), 0.4)
    span_hi: float = _key(_Domain("real", "(0, inf)"), 5.0)
    region_budget: int = _key(_Domain("index", "[1, inf)"), 2000)
    region_tol: float = _key(fb._TOL, 1e-6)
    empirics: str = _key(_Domain("word", words=("interior", "all", "none")), "interior")
    given: dict = field(default_factory=dict)


# The records whose fields are config keys.  Their ``kind`` and ``seed`` are
# the ``problem`` and ``problem_seed`` keys, and ``unproven`` the --unproven flag.
_RECORDS = (bench.SyntheticSpec, fb.FbParams, accel.AccelParams, stoch.StocParams)
_NOT_KEYS = {"kind", "seed", "unproven"}


def _keys(record, *extra):
    """The config keys of ``record``'s fields, and ``extra``."""
    return {f.name for f in fields(record)} - _NOT_KEYS | set(extra)


# The keys of ``ExperimentConfig``, each key's domain (the config's own, else
# a record field's, which every record that declares the field shares) and
# the keys whose domain is that of each entry of a list.
_OWN = {f.name: f.metadata for f in fields(ExperimentConfig) if f.name != "given"}
_DOMAINS = {**{f.name: f.metadata["domain"] for record in _RECORDS for f in fields(record)
               if f.name not in _NOT_KEYS},
            **{key: metadata["domain"] for key, metadata in _OWN.items() if metadata}}
_LISTED = {key for key, metadata in _OWN.items() if metadata.get("listed")}
_CONVERTERS = {key: (_as_entries if key in _LISTED else _as_field)(domain)
               for key, domain in _DOMAINS.items()}
_CONVERTERS["bundle"] = lambda key, value: str(value)

_PROBLEM_KEYS = _keys(bench.SyntheticSpec, "bundle", "problem", "problem_seed")
# The keys that each verb reads, and those that ``run`` reads besides under
# each algorithm.
_READS = {
    "gen": _PROBLEM_KEYS,
    "reference": _PROBLEM_KEYS | {"reference_budget"},
    "region-scan": _PROBLEM_KEYS | {"kappas", "grid", "span_lo", "span_hi", "region_budget",
                                    "region_tol", "empirics"},
    "run": _PROBLEM_KEYS | {"algorithm", "reference", "reference_budget"},
    "algorithm=fb": _keys(fb.FbParams, "tol"),
    "algorithm=fbf": {"tau", "alpha1", "alpha2", "max_iters", "record_every", "tol"},
    "algorithm=accel": _keys(accel.AccelParams, "modes"),
    "algorithm=stoc": _keys(stoch.StocParams, "max_iters", "seeds", "pi"),
}


def parse_config(path):
    """Parse and validate a flat ``key=value`` config file.

    Values are JSON-decoded when they parse as JSON (so quoted strings may
    carry escapes) and kept as raw text otherwise; each key's converter then
    normalizes the type.  Unknown and duplicate keys, empty lists, lists
    that repeat an entry (compared after conversion, so ``0.5,0.50`` is a
    repeat), and values that are not finite or would lose their fraction or
    type in conversion raise :class:`ConfigError` naming the key.
    """
    raw = {}
    for lineno, key, text in textio.read_keyvalue(path):
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        raw[key] = _CONVERTERS[key](key, value)
    return ExperimentConfig(**{key: value for key, value in raw.items() if key in _OWN},
                            given=raw)


def _check_reads(config, verb):
    """Refuse a given key that ``verb``, or for ``run`` its algorithm, does not
    read: accelerated ``modes`` set each mode and kappa, and ``mode=chen`` kappa."""
    reader = verb
    if verb == "run":
        if config.algorithm is None:
            raise ConfigError("run needs an algorithm (fb, fbf, accel, or stoc)")
        reader = f"algorithm={config.algorithm}"
    reads = _READS[verb] | _READS[reader]
    if reader == "algorithm=accel" and "modes" in config.given:
        reads, reader = reads - {"mode", "kappa"}, f"{reader} with modes"
    elif reader == "algorithm=accel" and config.given.get("mode") == "chen":
        reads, reader = reads - {"kappa"}, f"{reader} with mode=chen"
    for key in config.given:
        if key not in reads:
            raise ConfigError(f"config key {key!r} is not read by {reader}")


def _within(domain, name, value):
    """Refuse ``value`` outside ``domain`` with the domain's message, which
    names ``name``, as a config error."""
    try:
        domain.check(name, value)
    except SolverError as exc:
        raise ConfigError(str(exc))


def _check_domains(config):
    """Refuse a given value, or an entry of a given list, outside its key's
    domain."""
    for key, value in config.given.items():
        if key in _DOMAINS:
            for entry in value if key in _LISTED else [value]:
                _within(_DOMAINS[key], key, entry)


def _record(cls, config, **values):
    """A ``cls`` record of the given config keys of its fields, ``values``
    taking precedence; a field with neither takes its own default."""
    given = {f.name: config.given[f.name] for f in fields(cls) if f.name in config.given}
    return cls(**{**given, **values})


def resolve_problem(config, base_seed):
    """Load the bundle or generate the problem named by the config."""
    if config.bundle is not None and config.problem is not None:
        raise ConfigError("give either a bundle path or a problem kind, not both")
    if config.bundle is not None:
        return bench.load_bundle(config.bundle)
    if config.problem is None:
        raise ConfigError("config needs a problem kind or a bundle path")
    seed = config.problem_seed if config.problem_seed is not None else base_seed
    try:
        spec = _record(bench.SyntheticSpec, config, kind=config.problem, seed=seed)
    except SolverError as exc:
        raise ConfigError(f"invalid problem spec: {exc}")
    return bench.generate(spec)


def _write_summary(path, rows):
    cells = ([row[c] for c in _SUMMARY_COLUMNS] for row in rows)
    textio.write_table(path, _SUMMARY_COLUMNS, cells)


def _summary_row(label, algorithm, mode, kappa, setting, problem, result, reference,
                 **extra):
    """One job's summary row: the given cells, the objective at the final ``x``, and
    the rate slope of the trace (NaN without a reference or enough rows)."""
    row = {c: math.nan for c in _SUMMARY_COLUMNS}
    row["label"] = label
    row["algorithm"] = algorithm
    row["mode"] = mode
    row["setting"] = setting
    row["kappa"] = math.nan if kappa is None else float(kappa)
    for key, value in extra.items():
        row[key] = math.nan if value is None else value
    row["final_objective"] = saddle.primal_objective(problem, result.x)
    if reference is not None:
        try:
            est = bench.rate_slope(result.trace, reference.objective)
            row["slope"], row["slope_stderr"] = est.slope, est.stderr
        except InsufficientData:
            pass
    return row


def _mode_label(mode, kappa):
    """The label part of an accelerated or stochastic mode."""
    return "chen" if mode == "chen" else f"kappa{kappa:g}"


def _job_fb(problem, config, params, reference):
    result = fb.run_fb(problem, params, tol=config.tol)
    label = f"fb-kappa{params.kappa:g}"
    row = _summary_row(label, "fb", "-", params.kappa, "-", problem, result, reference,
                       tau=result.tau, sigma=result.sigma, rho=result.rho,
                       max_iters=params.max_iters, iterations=result.iterations)
    return label, result.trace, row


def _job_fbf(problem, config, params, reference):
    result = fb.run_fbf(problem, tau=params.tau, alpha1=config.alpha1, alpha2=config.alpha2,
                        max_iters=params.max_iters, tol=config.tol,
                        record_every=params.record_every)
    row = _summary_row("fbf", "fbf", "-", None, "-", problem, result, reference,
                       tau=result.tau, max_iters=params.max_iters,
                       iterations=result.iterations)
    return "fbf", result.trace, row


def _accel_records(config):
    """The record of each accelerated mode before the problem exists: one
    per ``modes`` entry, ``chen`` at kappa 0, else the one of the ``mode``
    and ``kappa`` keys.  An unbounded record given no horizon takes
    ``max_iters``."""
    modes = [{"mode": "chen", "kappa": 0.0} if entry == "chen"
             else {"mode": "kappa", "kappa": entry} for entry in config.modes or ()]
    records = []
    for mode in modes or [{}]:
        params = _record(accel.AccelParams, config, **mode, max_iters=config.max_iters)
        if params.setting == "unbounded" and params.horizon is None:
            params = replace(params, horizon=config.max_iters)
        records.append(params)
    return records


def _job_accel(problem, config, params, reference, omega_x, omega_y):
    """One accelerated mode's job: the ``q`` and ``r`` that the config does
    not give are tuned to the problem."""
    mode, kappa, setting = params.mode, params.kappa, params.setting
    horizon, max_iters = params.horizon, params.max_iters
    tuned = {}
    if not {"q", "r"} <= config.given.keys():
        tuning_horizon = horizon if setting == "unbounded" else max(2, max_iters)
        q, r = accel.tune_qr(setting, problem.L_f, problem.k_norm,
                             accel.mode_factors(mode, kappa), tuning_horizon,
                             omega_x=omega_x, omega_y=omega_y)
        tuned = {name: value for name, value in (("q", q), ("r", r))
                 if name not in config.given}
    params = replace(params, omega_x=omega_x, omega_y=omega_y, **tuned)
    result = accel.run_accel(problem, params)
    label = f"accel-{_mode_label(mode, kappa)}-{setting}"
    row = _summary_row(
        label,
        "accel",
        mode,
        kappa,
        setting,
        problem, result, reference,
        q=params.q,
        r=params.r,
        omega_x=omega_x,
        omega_y=omega_y,
        horizon=horizon,
        max_iters=max_iters,
        iterations=result.iterations,
    )
    return label, result.trace, row


def _omegas(problem, params, reference):
    """The record's omegas, gaps filled by automatic bounds when bounded,
    which resume the reference's plain warm-up when there is one."""
    omega_x, omega_y = params.omega_x, params.omega_y
    if params.setting == "bounded" and (omega_x is None or omega_y is None):
        warm = None if reference is None else reference.warm
        auto_x, auto_y, _ = bench.auto_norm_bounds(problem, warm=warm)
        omega_x = auto_x if omega_x is None else omega_x
        omega_y = auto_y if omega_y is None else omega_y
    return omega_x, omega_y


def _job_stoc(problem, config, args, params, seeds, reference):
    mode, kappa, setting = params.mode, params.kappa, params.setting
    mode_label = _mode_label(mode, kappa)
    omega_x, omega_y = _omegas(problem, params, reference)
    params = replace(params, omega_x=omega_x, omega_y=omega_y)
    factory = stoch.masked_oracle_factory(problem, params, config.pi)
    result = stoch.run_stoc(problem, params, factory, seeds)
    result.aggregate.to_csv(os.path.join(args.out, f"stoc-{mode_label}-aggregate.csv"))
    outputs = []
    for seed, run in zip(seeds, result.runs):
        label = f"stoc-{mode_label}-seed{seed}"
        row = _summary_row(
            label,
            "stoc",
            mode,
            kappa,
            setting,
            problem, run, reference,
            q=params.q,
            r=params.r,
            s=params.s,
            t=params.t,
            pi=config.pi,
            chi_x=result.schedule.chi_x,
            chi_y=result.schedule.chi_y,
            omega_x=omega_x,
            omega_y=omega_y,
            horizon=params.horizon,
            max_iters=run.iterations,
            iterations=run.iterations,
        )
        outputs.append((label, run.trace, row))
    return outputs


def _jobs(config, args):
    """The run's jobs: a generator function of the problem and the
    reference that yields each label, trace and summary row as its job
    finishes.

    Every record is built here, before any problem exists, so a derived
    value outside its field's domain (a horizon taken from ``max_iters``)
    fails before generation and the reference.  The fbf job takes its step,
    step count and cadence from an :class:`~pdsplit.fb.FbParams`.
    """
    if config.algorithm in ("fb", "fbf"):
        params = _record(fb.FbParams, config)
        job = _job_fb if config.algorithm == "fb" else _job_fbf

        def run(problem, reference):
            yield job(problem, config, params, reference)
    elif config.algorithm == "accel":
        records = _accel_records(config)

        def run(problem, reference):
            omega_x, omega_y = _omegas(problem, records[0], reference)
            for params in records:
                yield _job_accel(problem, config, params, reference, omega_x, omega_y)
    else:
        horizon = config.given.get("horizon", config.max_iters)
        params = _record(stoch.StocParams, config, horizon=horizon, unproven=args.unproven)
        seeds = config.seeds or [args.seed + i for i in range(5)]

        def run(problem, reference):
            yield from _job_stoc(problem, config, args, params, seeds, reference)
    return run


def cmd_run(config, args):
    """Execute one configured experiment and write its artifacts.

    Each job's record is checked before the problem is generated.  Each
    job's trace is written, and ``summary.csv`` rewritten with the rows of
    every job so far, as soon as that job finishes, so a failing job leaves
    the traces and summary rows of the jobs before it.
    """
    jobs = _jobs(config, args)
    problem = resolve_problem(config, args.seed).problem

    reference = None
    if config.reference:
        reference = bench.reference_solve(problem, budget=config.reference_budget)
        bench.save_reference(os.path.join(args.out, "reference"), reference)

    rows = []
    for label, trace, row in jobs(problem, reference):
        trace.to_csv(os.path.join(args.out, f"trace-{label}.csv"))
        rows.append(row)
        rows.sort(key=lambda r: (math.isnan(r["final_objective"]), r["final_objective"]))
        _write_summary(os.path.join(args.out, "summary.csv"), rows)
    for row in rows:
        print(f"{row['label']}: objective {row['final_objective']:.12g}")
    return 0


def region_scan_grid(
    problem, kappas, grid, span_lo, span_hi, budget, tol, empirics="interior"
):
    """Sweep a normalized step-size grid per continuum position.

    The grid spans ``[span_lo, span_hi]`` in units of ``L_f / 2`` on the
    ``1/tau`` axis and ``2 * k_norm^2 / L_f`` on the ``1/sigma`` axis, so the
    theoretical boundary sits near 1 on both.  For each cell the region test
    is recorded, and the plain iteration (relaxation 1) is run when
    ``empirics`` selects the cell, marking it converged when the absolute
    unrelaxed step residual ``||(x~ - x, y~ - y)||`` falls to ``tol`` or
    below within ``budget`` iterations.  The cells that run are the columns
    of one block iterate (:func:`~pdsplit.fb.run_fb_block`), each column
    bitwise the :func:`~pdsplit.fb.run_fb` of its cell; a cell whose pair
    leaves the finite range records ``converged`` 0 and ``residual`` inf.
    Cells are listed kappa by kappa, row by row.

    Returns the cell trace plus the (ran, interior, agree) counters used for
    the prediction/empirics summary.
    """
    l_f, k_norm = problem.L_f, problem.k_norm
    curv_scale = l_f / 2.0 if l_f > 0 else k_norm
    coup_scale = 2.0 * k_norm**2 / l_f if l_f > 0 else k_norm
    inv_taus = np.linspace(span_lo, span_hi, grid) * curv_scale
    inv_sigmas = np.linspace(span_lo, span_hi, grid) * coup_scale

    cells = []
    for kappa, inv_tau, inv_sigma in itertools.product(kappas, inv_taus, inv_sigmas):
        tau, sigma = 1.0 / inv_tau, 1.0 / inv_sigma
        valid, margins = fb.convergence_region(l_f, k_norm, kappa, tau, sigma)
        rel_min = min(margins["rel_curvature"], margins["rel_coupling"])
        if valid:
            interior = 1.0 if rel_min > INTERIOR_SLACK else 0.0
        else:
            interior = 1.0 if rel_min < -INTERIOR_SLACK else 0.0
        ran = empirics == "all" or (empirics == "interior" and interior > 0)
        cells.append(dict(kappa=kappa, inv_tau=inv_tau, inv_sigma=inv_sigma, tau=tau,
                          sigma=sigma, valid=float(valid), interior=interior,
                          ran=float(ran), converged=math.nan, residual=math.nan))

    runs = [cell for cell in cells if cell["ran"]]
    kappa, tau, sigma = ([cell[name] for cell in runs] for name in ("kappa", "tau", "sigma"))
    with np.errstate(over="ignore", invalid="ignore"):
        results = fb.run_fb_block(problem, kappa, tau, sigma, budget, tol)
    for cell, res in zip(runs, results):
        if np.isfinite(res.x_tilde).all() and np.isfinite(res.y_tilde).all():
            cell["converged"] = 1.0 if res.converged else 0.0
            cell["residual"] = float(res.trace.column("residual")[-1])
        else:
            cell["converged"], cell["residual"] = 0.0, math.inf

    trace = IterTrace(REGION_COLUMNS)
    for cell in cells:
        trace.append(**cell)
    ran = trace.column("ran") > 0
    interior = ran & (trace.column("interior") > 0)
    agree = interior & (trace.column("valid") == trace.column("converged"))
    return trace, int(ran.sum()), int(interior.sum()), int(agree.sum())


def cmd_region_scan(config, args):
    """Sweep a step-size grid per continuum position and record outcomes."""
    if not config.span_lo < config.span_hi:
        raise ConfigError("need span_lo < span_hi")
    trace, n_ran, n_interior, n_agree = region_scan_grid(
        resolve_problem(config, args.seed).problem,
        config.kappas,
        config.grid,
        config.span_lo,
        config.span_hi,
        config.region_budget,
        config.region_tol,
        empirics=config.empirics,
    )
    trace.to_csv(os.path.join(args.out, "region.csv"))
    if n_interior:
        print(
            f"{len(trace)} cells, {n_ran} run, interior agreement "
            f"{n_agree}/{n_interior} ({100.0 * n_agree / n_interior:.1f}%)"
        )
    else:
        print(f"{len(trace)} cells, {n_ran} run")
    return 0


def cmd_gen(config, args):
    """Generate a problem and write its bundle directory."""
    if config.problem is None:
        raise ConfigError("gen needs a problem kind")
    generated = resolve_problem(config, args.seed)
    bundle_dir = os.path.join(args.out, "bundle")
    bench.save_bundle(bundle_dir, generated)
    p, l = generated.problem.dims
    print(f"bundle written to {bundle_dir} (primal dim {p}, dual dim {l})")
    return 0


def cmd_reference(config, args):
    """Compute and store a reference solution for the configured problem."""
    problem = resolve_problem(config, args.seed).problem
    ref = bench.reference_solve(problem, budget=config.reference_budget)
    ref_dir = os.path.join(args.out, "reference")
    bench.save_reference(ref_dir, ref)
    tag = " (best effort)" if ref.best_effort else ""
    print(
        f"objective {ref.objective:.12g} residual_rel {ref.residual_rel:.3g} "
        f"method {ref.method} iterations {ref.iterations}{tag}"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pdsplit",
        description="Saddle-problem experiment runner",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    helps = {
        "run": "run one configured experiment",
        "region-scan": "sweep a step-size grid per continuum position",
        "gen": "generate a problem bundle",
        "reference": "compute and store a reference solution",
    }
    for verb, text in helps.items():
        sp = sub.add_parser(verb, help=text)
        sp.add_argument("--config", required=True, help="path to key=value config")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=0,
                        help="base seed, an integer in [0, inf)")
        sp.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility and has no effect: every verb runs serially",
        )
        sp.add_argument(
            "--unproven",
            action="store_true",
            help="allow stochastic modes without a guarantee",
        )
    return parser


_VERBS = {
    "run": cmd_run,
    "region-scan": cmd_region_scan,
    "gen": cmd_gen,
    "reference": cmd_reference,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        _check_reads(config, args.verb)
        _check_domains(config)
        # --seed takes the domain of the problem seed and of each stochastic
        # seed, so the seeds derived from it need no check of their own.
        _within(stoch._SEED, "--seed", args.seed)
        return _VERBS[args.verb](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
