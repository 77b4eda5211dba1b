"""Batch experiment runner.

Four verbs cover the workflow: ``run`` executes one configured experiment
(plain, inertial benchmark, accelerated, or stochastic) and writes trace and
summary CSVs; ``region-scan`` sweeps a step-size grid per continuum position
and records predicted against observed convergence; ``gen`` emits a problem
bundle; ``reference`` computes and stores a high-accuracy solution.

Configuration is flat ``key=value`` text (``#`` comments and blank lines
allowed); values may use JSON escaping where needed.  Unknown or duplicate
keys are rejected before anything runs.  Exit codes: 0 on success, 1 for
configuration errors, 2 for solver failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import accel, bench, fb, saddle, stoch
from .errors import ConfigError, InsufficientData, NonFiniteIterate, SolverError
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

_STRING_SUMMARY_COLUMNS = {"label", "algorithm", "mode", "setting"}


def _parse_scalar(key, value, kind):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r}: cannot read {value!r} as {kind.__name__}")


def _as_int(key, value):
    if isinstance(value, bool):
        raise ConfigError(f"config key {key!r}: expected an integer")
    return _parse_scalar(key, value, int)


def _as_float(key, value):
    return _parse_scalar(key, value, float)


def _as_bool(key, value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ConfigError(f"config key {key!r}: expected a boolean (0/1/true/false)")


def _as_choice(options):
    def parse(key, value):
        value = str(value)
        if value not in options:
            raise ConfigError(
                f"config key {key!r}: {value!r} is not one of {sorted(options)}"
            )
        return value

    return parse


def _as_list(value):
    if isinstance(value, list):
        return value
    return [tok.strip() for tok in str(value).split(",") if tok.strip()]


def _as_int_list(key, value):
    return [_as_int(key, tok) for tok in _as_list(value)]


def _as_float_list(key, value):
    return [_as_float(key, tok) for tok in _as_list(value)]


def _as_mode_list(key, value):
    tokens = [str(tok) for tok in _as_list(value)]
    for tok in tokens:
        if tok != "chen":
            _as_float(key, tok)
    if not tokens:
        raise ConfigError(f"config key {key!r}: empty mode list")
    return tokens


def _as_relaxation(key, value):
    if isinstance(value, str) and value == "recipe":
        return value
    return _as_float(key, value)


_SCHEMA = {
    "bundle": lambda k, v: str(v),
    "problem": _as_choice(bench.GENERATOR_KINDS),
    "problem_seed": _as_int,
    "n_samples": _as_int,
    "n_groups": _as_int,
    "group_size": _as_int,
    "subnet_size": _as_int,
    "n_subnets": _as_int,
    "n_active": _as_int,
    "dim": _as_int,
    "lam": _as_float,
    "noise_sd": _as_float,
    "algorithm": _as_choice(("fb", "fbf", "accel", "stoc")),
    "kappa": _as_float,
    "mode": _as_choice(("kappa", "chen")),
    "modes": _as_mode_list,
    "setting": _as_choice(("bounded", "unbounded")),
    "omega_x": _as_float,
    "omega_y": _as_float,
    "horizon": _as_int,
    "q": _as_float,
    "r": _as_float,
    "s": _as_float,
    "t": _as_float,
    "tau": _as_float,
    "sigma": _as_float,
    "relaxation": _as_relaxation,
    "alpha1": _as_float,
    "alpha2": _as_float,
    "max_iters": _as_int,
    "record_every": _as_int,
    "tol": _as_float,
    "seeds": _as_int_list,
    "pi": _as_float,
    "chi_x": _as_float,
    "chi_y": _as_float,
    "r_tilde": _as_float,
    "reference": _as_bool,
    "reference_budget": _as_int,
    "kappas": _as_float_list,
    "grid": _as_int,
    "span_lo": _as_float,
    "span_hi": _as_float,
    "region_budget": _as_int,
    "region_tol": _as_float,
    "empirics": _as_choice(("interior", "all", "none")),
}


@dataclass
class ExperimentConfig:
    """Validated flat experiment configuration.

    Every field mirrors one config key; ``None`` means the key was absent
    and a verb-specific default applies.
    """

    bundle: str | None = None
    problem: str | None = None
    problem_seed: int | None = None
    n_samples: int | None = None
    n_groups: int | None = None
    group_size: int | None = None
    subnet_size: int | None = None
    n_subnets: int | None = None
    n_active: int | None = None
    dim: int | None = None
    lam: float | None = None
    noise_sd: float | None = None
    algorithm: str | None = None
    kappa: float | None = None
    mode: str | None = None
    modes: list | None = None
    setting: str | None = None
    omega_x: float | None = None
    omega_y: float | None = None
    horizon: int | None = None
    q: float | None = None
    r: float | None = None
    s: float | None = None
    t: float | None = None
    tau: float | None = None
    sigma: float | None = None
    relaxation: float | str | None = None
    alpha1: float | None = None
    alpha2: float | None = None
    max_iters: int | None = None
    record_every: int | None = None
    tol: float | None = None
    seeds: list | None = None
    pi: float | None = None
    chi_x: float | None = None
    chi_y: float | None = None
    r_tilde: float | None = None
    reference: bool = False
    reference_budget: int | None = None
    kappas: list | None = None
    grid: int | None = None
    span_lo: float | None = None
    span_hi: float | None = None
    region_budget: int | None = None
    region_tol: float | None = None
    empirics: str | None = None


def parse_config(path):
    """Parse and validate a flat ``key=value`` config file.

    Values are JSON-decoded when they parse as JSON (so quoted strings may
    carry escapes) and kept as raw text otherwise; each key's converter then
    normalizes the type.  Unknown and duplicate keys raise
    :class:`ConfigError` naming the key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        raw[key] = _SCHEMA[key](key, value)
    return ExperimentConfig(**raw)


def _base_seed(args):
    return args.seed if args.seed is not None else 0


def resolve_problem(config, base_seed):
    """Load the bundle or generate the problem named by the config."""
    if config.bundle is not None and config.problem is not None:
        raise ConfigError("give either a bundle path or a problem kind, not both")
    if config.bundle is not None:
        return bench.load_bundle(config.bundle)
    if config.problem is None:
        raise ConfigError("config needs a problem kind or a bundle path")
    kwargs = {"kind": config.problem}
    kwargs["seed"] = (
        config.problem_seed if config.problem_seed is not None else base_seed
    )
    for field in fields(bench.SyntheticSpec):
        if field.name in ("kind", "seed"):
            continue
        value = getattr(config, field.name, None)
        if value is not None:
            kwargs[field.name] = value
    try:
        spec = bench.SyntheticSpec(**kwargs)
    except SolverError as exc:
        raise ConfigError(f"invalid problem spec: {exc}")
    return bench.generate(spec)


def _write_summary(path, rows):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(",".join(_SUMMARY_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in _SUMMARY_COLUMNS:
                value = row[col]
                if col in _STRING_SUMMARY_COLUMNS:
                    cells.append(str(value))
                else:
                    cells.append(f"{float(value):.17g}")
            fh.write(",".join(cells) + "\n")
    os.replace(tmp, path)


def _summary_row(label, algorithm, mode, kappa, setting, **extra):
    row = {c: math.nan for c in _SUMMARY_COLUMNS}
    row["label"] = label
    row["algorithm"] = algorithm
    row["mode"] = mode
    row["setting"] = setting
    row["kappa"] = math.nan if kappa is None else float(kappa)
    for key, value in extra.items():
        row[key] = math.nan if value is None else value
    return row


def _slope_fields(trace, reference):
    if reference is None:
        return math.nan, math.nan
    try:
        est = bench.rate_slope(trace, reference.objective)
    except InsufficientData:
        return math.nan, math.nan
    return est.slope, est.stderr


def _mode_token(token):
    token = str(token)
    if token == "chen":
        return "chen", 0.0, "chen"
    try:
        kappa = float(token)
    except ValueError:
        raise ConfigError(f"unknown mode token {token!r}")
    return "kappa", kappa, f"kappa{kappa:g}"


def _job_fb(problem, config, reference):
    kappa = config.kappa if config.kappa is not None else 0.0
    params = fb.FbParams(
        kappa=kappa,
        tau=config.tau,
        sigma=config.sigma,
        relaxation=config.relaxation if config.relaxation is not None else "recipe",
        max_iters=config.max_iters if config.max_iters is not None else 1000,
        record_every=config.record_every if config.record_every is not None else 1,
    )
    info = fb.validate_params(problem, params)
    result = fb.run_fb(problem, params, tol=config.tol)
    label = f"fb-kappa{kappa:g}"
    row = _summary_row(
        label,
        "fb",
        "-",
        kappa,
        "-",
        tau=info["tau"],
        sigma=info["sigma"],
        rho=info["rho"],
        max_iters=params.max_iters,
        iterations=result.iterations,
        final_objective=saddle.primal_objective(problem, result.x),
    )
    row["slope"], row["slope_stderr"] = _slope_fields(result.trace, reference)
    return label, result.trace, row


def _job_fbf(problem, config, reference):
    tau = config.tau if config.tau is not None else fb.fbf_default_step(problem)
    max_iters = config.max_iters if config.max_iters is not None else 1000
    result = fb.run_fbf(
        problem,
        tau=tau,
        alpha1=config.alpha1 if config.alpha1 is not None else 0.0,
        alpha2=config.alpha2 if config.alpha2 is not None else 0.0,
        max_iters=max_iters,
        tol=config.tol,
        record_every=config.record_every if config.record_every is not None else 1,
    )
    row = _summary_row(
        "fbf",
        "fbf",
        "-",
        None,
        "-",
        tau=tau,
        max_iters=max_iters,
        iterations=result.iterations,
        final_objective=saddle.primal_objective(problem, result.x),
    )
    row["slope"], row["slope_stderr"] = _slope_fields(result.trace, reference)
    return "fbf", result.trace, row


def _job_accel(problem, config, token, reference, omega_x, omega_y):
    mode, kappa, mode_label = _mode_token(token)
    setting = config.setting if config.setting is not None else "bounded"
    max_iters = config.max_iters if config.max_iters is not None else 1000
    horizon = config.horizon
    if setting == "unbounded" and horizon is None:
        horizon = max_iters
    tuning_horizon = horizon if setting == "unbounded" else max(2, max_iters)
    factors = accel.mode_factors(mode, kappa)
    q, r = config.q, config.r
    if q is None or r is None:
        tuned_q, tuned_r = accel.tune_qr(
            setting,
            problem.L_f,
            problem.k_norm,
            factors,
            tuning_horizon,
            omega_x=omega_x,
            omega_y=omega_y,
        )
        q = tuned_q if q is None else q
        r = tuned_r if r is None else r
    params = accel.AccelParams(
        mode=mode,
        kappa=kappa,
        setting=setting,
        omega_x=omega_x,
        omega_y=omega_y,
        horizon=horizon,
        q=q,
        r=r,
        max_iters=max_iters,
        record_every=config.record_every if config.record_every is not None else 1,
    )
    result = accel.run_accel(problem, params)
    label = f"accel-{mode_label}-{setting}"
    row = _summary_row(
        label,
        "accel",
        mode,
        kappa,
        setting,
        q=q,
        r=r,
        omega_x=omega_x,
        omega_y=omega_y,
        horizon=horizon,
        max_iters=max_iters,
        iterations=result.iterations,
        final_objective=saddle.primal_objective(problem, result.x),
    )
    row["slope"], row["slope_stderr"] = _slope_fields(result.trace, reference)
    return label, result.trace, row


def _need_auto_omegas(config, setting):
    return setting == "bounded" and (config.omega_x is None or config.omega_y is None)


def _job_stoc(problem, config, args, reference, out_dir):
    mode = config.mode if config.mode is not None else "kappa"
    kappa = config.kappa if config.kappa is not None else 1.0
    mode_label = "chen" if mode == "chen" else f"kappa{kappa:g}"
    setting = config.setting if config.setting is not None else "bounded"
    horizon = config.horizon
    if horizon is None:
        horizon = config.max_iters if config.max_iters is not None else 1000
    omega_x, omega_y = config.omega_x, config.omega_y
    if _need_auto_omegas(config, setting):
        auto_x, auto_y, _ = bench.auto_norm_bounds(problem)
        omega_x = auto_x if omega_x is None else omega_x
        omega_y = auto_y if omega_y is None else omega_y
    split_kwargs = {}
    for name in ("q", "r", "s", "t"):
        value = getattr(config, name)
        if value is not None:
            split_kwargs[name] = value
    params = stoch.StocParams(
        mode=mode,
        kappa=kappa,
        setting=setting,
        omega_x=omega_x,
        omega_y=omega_y,
        horizon=horizon,
        chi_x=config.chi_x,
        chi_y=config.chi_y,
        r_tilde=config.r_tilde,
        record_every=config.record_every if config.record_every is not None else 1,
        unproven=args.unproven,
        **split_kwargs,
    )
    pi = config.pi if config.pi is not None else 0.5
    factory = stoch.masked_oracle_factory(problem, params, pi)
    seeds = (
        config.seeds
        if config.seeds is not None
        else [_base_seed(args) + i for i in range(5)]
    )
    result = stoch.run_stoc(problem, params, factory, seeds)
    result.aggregate.to_csv(os.path.join(out_dir, f"stoc-{mode_label}-aggregate.csv"))
    outputs = []
    for seed, run in zip(result.seeds, result.runs):
        label = f"stoc-{mode_label}-seed{seed}"
        row = _summary_row(
            label,
            "stoc",
            mode,
            kappa,
            setting,
            q=params.q,
            r=params.r,
            s=params.s,
            t=params.t,
            pi=pi,
            chi_x=result.chi_x,
            chi_y=result.chi_y,
            omega_x=omega_x,
            omega_y=omega_y,
            horizon=horizon,
            max_iters=run.iterations,
            iterations=run.iterations,
            final_objective=saddle.primal_objective(problem, run.x),
        )
        row["slope"], row["slope_stderr"] = _slope_fields(run.trace, reference)
        outputs.append((label, run.trace, row))
    return outputs


def cmd_run(config, args):
    """Execute one configured experiment and write its artifacts."""
    if config.algorithm is None:
        raise ConfigError("run needs an algorithm (fb, fbf, accel, or stoc)")
    if config.modes is not None and config.algorithm != "accel":
        raise ConfigError("the modes key only applies to algorithm=accel")
    os.makedirs(args.out, exist_ok=True)
    generated = resolve_problem(config, _base_seed(args))
    problem = generated.problem

    reference = None
    if config.reference:
        budget = (
            config.reference_budget if config.reference_budget is not None else 100000
        )
        reference = bench.reference_solve(problem, budget=budget)
        bench.save_reference(os.path.join(args.out, "reference"), reference)

    outputs = []
    if config.algorithm == "fb":
        outputs.append(_job_fb(problem, config, reference))
    elif config.algorithm == "fbf":
        outputs.append(_job_fbf(problem, config, reference))
    elif config.algorithm == "accel":
        if config.mode == "chen":
            default_token = "chen"
        else:
            default_token = str(config.kappa if config.kappa is not None else 0.0)
        tokens = config.modes if config.modes is not None else [default_token]
        setting = config.setting if config.setting is not None else "bounded"
        omega_x, omega_y = config.omega_x, config.omega_y
        if _need_auto_omegas(config, setting):
            auto_x, auto_y, _ = bench.auto_norm_bounds(problem)
            omega_x = auto_x if omega_x is None else omega_x
            omega_y = auto_y if omega_y is None else omega_y

        def one_mode(token):
            return _job_accel(problem, config, token, reference, omega_x, omega_y)

        if args.jobs > 1 and len(tokens) > 1:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                outputs.extend(pool.map(one_mode, tokens))
        else:
            outputs.extend(one_mode(tok) for tok in tokens)
    else:
        outputs.extend(_job_stoc(problem, config, args, reference, args.out))

    rows = []
    for label, trace, row in outputs:
        trace.to_csv(os.path.join(args.out, f"trace-{label}.csv"))
        rows.append(row)
    rows.sort(key=lambda r: (math.isnan(r["final_objective"]), r["final_objective"]))
    _write_summary(os.path.join(args.out, "summary.csv"), rows)
    for row in rows:
        print(f"{row['label']}: objective {row['final_objective']:.12g}")
    return 0


def region_scan_grid(
    problem,
    kappas,
    grid,
    span_lo,
    span_hi,
    budget,
    tol,
    empirics="interior",
    jobs=1,
):
    """Sweep a normalized step-size grid per continuum position.

    The grid spans ``[span_lo, span_hi]`` in units of ``L_f / 2`` on the
    ``1/tau`` axis and ``2 * k_norm^2 / L_f`` on the ``1/sigma`` axis, so the
    theoretical boundary sits near 1 on both.  For each cell the region test
    is recorded, and the plain iteration is run when ``empirics`` selects the
    cell, marking it converged when the relative residual falls below ``tol``
    within ``budget`` iterations.

    Returns the cell trace plus the (ran, interior, agree) counters used for
    the prediction/empirics summary.
    """
    l_f, k_norm = problem.L_f, problem.k_norm
    curv_scale = l_f / 2.0 if l_f > 0 else k_norm
    coup_scale = 2.0 * k_norm**2 / l_f if l_f > 0 else k_norm
    inv_taus = np.linspace(span_lo, span_hi, grid) * curv_scale
    inv_sigmas = np.linspace(span_lo, span_hi, grid) * coup_scale

    def scan_row(task):
        kappa, i = task
        tau = 1.0 / inv_taus[i]
        cells = []
        for inv_sigma in inv_sigmas:
            sigma = 1.0 / inv_sigma
            valid, margins = fb.convergence_region(l_f, k_norm, kappa, tau, sigma)
            rel_min = min(margins["rel_curvature"], margins["rel_coupling"])
            if valid:
                interior = 1.0 if rel_min > INTERIOR_SLACK else 0.0
            else:
                interior = 1.0 if rel_min < -INTERIOR_SLACK else 0.0
            run_it = empirics == "all" or (empirics == "interior" and interior > 0)
            ran, converged, residual = 0.0, math.nan, math.nan
            if run_it:
                ran = 1.0
                params = fb.FbParams(
                    kappa=kappa,
                    tau=tau,
                    sigma=sigma,
                    relaxation=1.0,
                    max_iters=budget,
                    record_every=budget,
                )
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        res = fb.run_fb(
                            problem,
                            params,
                            tol=tol,
                            validate=False,
                            record_mdist=False,
                        )
                    converged = 1.0 if res.converged else 0.0
                    residual = float(res.trace.column("residual")[-1])
                except NonFiniteIterate:
                    converged = 0.0
                    residual = math.inf
            cells.append(
                dict(
                    kappa=kappa,
                    inv_tau=inv_taus[i],
                    inv_sigma=inv_sigma,
                    tau=tau,
                    sigma=sigma,
                    valid=float(valid),
                    interior=interior,
                    ran=ran,
                    converged=converged,
                    residual=residual,
                )
            )
        return cells

    tasks = [(kappa, i) for kappa in kappas for i in range(grid)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(scan_row, tasks))
    else:
        results = [scan_row(task) for task in tasks]

    trace = IterTrace(REGION_COLUMNS)
    n_interior = n_ran = n_agree = 0
    for cells in results:
        for cell in cells:
            trace.append(**cell)
            if cell["ran"] > 0:
                n_ran += 1
                if cell["interior"] > 0:
                    n_interior += 1
                    if cell["valid"] == cell["converged"]:
                        n_agree += 1
    return trace, n_ran, n_interior, n_agree


def cmd_region_scan(config, args):
    """Sweep a step-size grid per continuum position and record outcomes."""
    generated = resolve_problem(config, _base_seed(args))
    problem = generated.problem
    kappas = config.kappas if config.kappas is not None else [0.0, 0.25, 0.5, 0.75, 1.0]
    grid = config.grid if config.grid is not None else 20
    span_lo = config.span_lo if config.span_lo is not None else 0.4
    span_hi = config.span_hi if config.span_hi is not None else 5.0
    budget = config.region_budget if config.region_budget is not None else 2000
    tol = config.region_tol if config.region_tol is not None else 1e-6
    empirics = config.empirics if config.empirics is not None else "interior"
    if grid < 2:
        raise ConfigError("grid must be at least 2")
    if not 0.0 < span_lo < span_hi:
        raise ConfigError("need 0 < span_lo < span_hi")
    for kappa in kappas:
        if not -1.0 <= kappa <= 1.0:
            raise ConfigError(f"kappa {kappa} outside [-1, 1]")

    trace, n_ran, n_interior, n_agree = region_scan_grid(
        problem,
        kappas,
        grid,
        span_lo,
        span_hi,
        budget,
        tol,
        empirics=empirics,
        jobs=args.jobs,
    )
    os.makedirs(args.out, exist_ok=True)
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
    generated = resolve_problem(config, _base_seed(args))
    bundle_dir = os.path.join(args.out, "bundle")
    bench.save_bundle(bundle_dir, generated)
    p, l = generated.problem.dims
    print(f"bundle written to {bundle_dir} (primal dim {p}, dual dim {l})")
    return 0


def cmd_reference(config, args):
    """Compute and store a reference solution for the configured problem."""
    generated = resolve_problem(config, _base_seed(args))
    budget = config.reference_budget if config.reference_budget is not None else 100000
    ref = bench.reference_solve(generated.problem, budget=budget)
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
        sp.add_argument("--seed", type=int, default=None, help="base seed")
        sp.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker threads for the accelerated modes of run and for region-scan",
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
        return _VERBS[args.verb](parse_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
