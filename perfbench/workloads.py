"""The three benchmark workloads and the checks on their outputs.

Each workload exposes ``warm_up(workdir)`` (untimed, on a small problem of the
same kind) and ``rep(ctx)``, one repetition of fixed work whose inputs depend only
on ``ctx.seed``.  A repetition returns its set-up samples, its solve time and
a few phase times.  Every solver call or CLI verb runs through
``Recorder.op``, which times it, counts it as attempted, and counts it as
failed when it raises, exits non-zero, returns non-finite output or fails a
check.

Solvers and generators are looked up on their module at call time (for
example ``fb.run_fb``), so that a traced run sees the patched boundaries.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile
import time
import warnings

import numpy as np

from pdsplit import accel, bench, cli, fb, saddle, shard
from pdsplit.bench import SyntheticSpec

# Relative tolerance for the objectives recorded for the default seed.
EXPECTED_RTOL = 1e-6

# A returned pair fails when its fixed-point residual (at the kappa = 0
# recipe steps) exceeds this multiple of the residual at the zero start.
# The forward-backward-forward pair of ogl-trace sits near 35 times; a
# drifting iterate grows without bound.
RESIDUAL_FACTOR = 100.0

# ogl-trace: the paper's rate experiment, one trace row per step.
OGL_SPEC = dict(kind="overlapping-group-lasso", n_groups=150, group_size=30, n_samples=600)
# Set-up is dominated by power iteration on the design, whose length varies
# with the instance, so a repetition sets up this many instances and solves
# the last.
OGL_SETUPS = 3
OGL_STEPS = 250
OGL_WARM = 200
# Final objectives of the four solvers may differ by at most this factor
# after OGL_STEPS steps (they have not converged yet).
OGL_AGREEMENT = 2.0

# ggfl-tol: solve to a stated residual, final trace row only.  The step
# count to the tolerance varies by about 20 percent from one instance to the
# next, so a repetition solves several instances and pairs each to-tolerance
# run with fixed-budget runs of about the same length.
GGFL_SPEC = dict(
    kind="graph-guided-fused-lasso", subnet_size=10, n_subnets=100, n_active=10, n_samples=200
)
GGFL_INSTANCES = 6
GGFL_TOL = 1e-2
GGFL_CAP = 100000
GGFL_WARM = 200
GGFL_ACCEL_STEPS = 1500
GGFL_SHARD_STEPS = 1000
GGFL_WORKERS = 3

# cli-mix: the verbs a CLI user runs, in-process.
CLI_GEN = dict(problem="overlapping-group-lasso", n_groups=20, group_size=20, n_samples=300)
CLI_GENS = 3
CLI_RUN = dict(
    algorithm="stoc", kappa=1, horizon=2000, record_every=10, pi=0.8,
    reference="true", reference_budget=10000,
)
CLI_STOC_SEEDS = 4
CLI_JOBS = 2
CLI_SCAN = dict(problem="lasso", dim=10, n_samples=30, grid=6, region_budget=500)
# Phase times a repetition may report: ggfl-tol's run to the tolerance and
# cli-mix's two solving verbs.
PHASES = ("time_to_tol_s", "cli_run_s", "cli_scan_s")

BUNDLE_FILES = ("meta.txt", "design.txt", "response.txt", "coupling.txt", "signal.txt")


class Recorder:
    """Counts, times and checks the operations of a run."""

    def __init__(self, expected=None, tracer=None):
        self.expected = expected or {}
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.outputs = {}

    @property
    def failed(self):
        return len(self.failures)

    def _quiet(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.enabled(False)

    def op(self, name, fn, *args, check=None, **kwargs):
        """Run one operation; returns ``(result, seconds)``.

        ``check(result)`` returns a list of problems; it runs untimed and
        untraced.  A raised exception also counts as a failure and gives a
        ``None`` result.
        """
        self.attempted += 1
        span = self.tracer.operation(name) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if check is not None:
            with self._quiet():
                try:
                    problems = check(result)
                except Exception as exc:  # a check that cannot run fails the op
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failures.append(f"{name}: " + "; ".join(problems))
        return result, elapsed

    def setup(self, fn, *args):
        """Time a set-up step; it is not an operation and must not fail."""
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start

    def quiet(self, fn, *args):
        """Call ``fn`` untraced (for the inputs of checks)."""
        with self._quiet():
            return fn(*args)

    def expect(self, key, value):
        """Record an output; compare it with the recorded one if present."""
        self.outputs.setdefault(key, value)
        want = self.expected.get(key)
        if want is None:
            return []
        if not math.isclose(value, want, rel_tol=EXPECTED_RTOL, abs_tol=0.0):
            return [f"{key} = {value!r}, recorded {want!r}"]
        return []


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _ready(spec):
    """Generate a problem and its norm estimates (``L_f`` and ``||K||``)."""
    generated = bench.generate(spec)
    generated.problem.k_norm
    return generated


class Baseline:
    """Step sizes and starting residual that the checks measure against."""

    def __init__(self, problem):
        self.problem = problem
        self.tau, self.sigma = fb.default_step_sizes(problem, 0.0)
        p, l = problem.dims
        self.r0 = self.residual(np.zeros(p), np.zeros(l))

    def residual(self, x, y):
        return saddle.fixed_point_residual(self.problem, x, y, self.tau, self.sigma)

    def pair(self, rec, key, x, y):
        """Problems with a returned pair: non-finite, or residual unbounded."""
        if not _finite(x, y):
            return [f"{key}: non-finite iterate"]
        res = self.residual(x, y)
        if not res <= RESIDUAL_FACTOR * self.r0:
            return [f"{key}: residual {res:.3g} against {self.r0:.3g} at the start"]
        objective = saddle.primal_objective(self.problem, x)
        if not math.isfinite(objective):
            return [f"{key}: non-finite objective"]
        return rec.expect(f"{key}.objective", objective)


def _accel_params(problem, kappa, omega_x, omega_y, steps, record_every):
    factors = accel.mode_factors("kappa", kappa)
    q, r = accel.tune_qr(
        "bounded", problem.L_f, problem.k_norm, factors, steps,
        omega_x=omega_x, omega_y=omega_y,
    )
    return accel.AccelParams(
        mode="kappa", kappa=kappa, setting="bounded", omega_x=omega_x,
        omega_y=omega_y, q=q, r=r, max_iters=steps, record_every=record_every,
    )


# -- ogl-trace --------------------------------------------------------------


def _ogl_solvers(problem, steps, warm, rec=None, base=None):
    """The ogl-trace solver calls; returns the total solve time."""
    if rec is None:
        rec = Recorder()
    objectives = {}

    def pair_check(key):
        def check(result):
            objectives[key] = saddle.primal_objective(problem, result.x)
            return base.pair(rec, key, result.x, result.y) if base else []
        return check

    def bounds_check(result):
        omega_x, omega_y, warm_run = result
        if not (math.isfinite(omega_x) and math.isfinite(omega_y)):
            return ["non-finite norm bounds"]
        return base.pair(rec, "auto_norm_bounds", warm_run.x, warm_run.y) if base else []

    def agreement_check(result):
        problems = pair_check("run_fbf")(result)
        if len(objectives) == 4:
            lo, hi = min(objectives.values()), max(objectives.values())
            if not hi <= OGL_AGREEMENT * lo:
                problems.append(f"final objectives disagree: {sorted(objectives.items())}")
        return problems

    solve = 0.0
    bounds, t = rec.op("auto_norm_bounds", bench.auto_norm_bounds, problem, warm,
                       check=bounds_check)
    solve += t
    for kappa in (0.0, 1.0):
        params = fb.FbParams(kappa=kappa, max_iters=steps, record_every=1)
        _, t = rec.op(f"run_fb_k{kappa:g}", fb.run_fb, problem, params,
                      check=pair_check(f"run_fb_k{kappa:g}"))
        solve += t
    omega_x, omega_y = (bounds[0], bounds[1]) if bounds else (1.0, 1.0)
    params = rec.quiet(_accel_params, problem, 0.5, omega_x, omega_y, steps, 1)
    _, t = rec.op("run_accel_k0.5", accel.run_accel, problem, params,
                  check=pair_check("run_accel_k0.5"))
    solve += t
    _, t = rec.op("run_fbf", fb.run_fbf, problem, max_iters=steps, record_every=1,
                  check=agreement_check)
    solve += t
    return solve


def ogl_warm_up(workdir):
    spec = SyntheticSpec(kind="overlapping-group-lasso", n_groups=10, group_size=20, n_samples=60)
    _ogl_solvers(_ready(spec).problem, 5, 20)


def ogl_rep(ctx):
    rec = ctx.rec
    setups = []
    for i in range(OGL_SETUPS):
        spec = SyntheticSpec(seed=ctx.seed * OGL_SETUPS + i, **OGL_SPEC)
        generated, setup = rec.setup(_ready, spec)
        setups.append(setup)
    base = rec.quiet(Baseline, generated.problem)
    solve = _ogl_solvers(generated.problem, OGL_STEPS, OGL_WARM, rec, base)
    return {"setup": setups, "solve": solve, "phases": {}}


# -- ggfl-tol ---------------------------------------------------------------


def _ggfl_solvers(problem, rec, base, key, warm, accel_steps, shard_steps):
    """The ggfl-tol solver calls; returns (solve time, time to tolerance)."""

    def pair_check(name, must_converge=False):
        def check(result):
            problems = base.pair(rec, f"{key}.{name}", result.x, result.y)
            if must_converge and not result.converged:
                problems.append(f"no convergence in {result.iterations} steps")
            return problems
        return check

    def bounds_check(result):
        omega_x, omega_y, _ = result
        return [] if math.isfinite(omega_x) and math.isfinite(omega_y) else ["non-finite bounds"]

    params = fb.FbParams(kappa=0.0, max_iters=GGFL_CAP, record_every=GGFL_CAP)
    _, to_tol = rec.op(f"{key}.run_fb_tol", fb.run_fb, problem, params, tol=GGFL_TOL,
                       check=pair_check("run_fb_tol", must_converge=True))
    bounds, t_bounds = rec.op(f"{key}.auto_norm_bounds", bench.auto_norm_bounds, problem,
                              warm, check=bounds_check)
    omega_x, omega_y = (bounds[0], bounds[1]) if bounds else (1.0, 1.0)
    a_params = rec.quiet(_accel_params, problem, 0.5, omega_x, omega_y, accel_steps, accel_steps)
    _, t_accel = rec.op(f"{key}.run_accel_k0.5", accel.run_accel, problem, a_params,
                        check=pair_check("run_accel_k0.5"))
    s_params = fb.FbParams(kappa=0.0, max_iters=shard_steps, record_every=shard_steps)
    _, t_shard = rec.op(f"{key}.run_fb_sharded", shard.run_fb_sharded, problem, s_params,
                        GGFL_WORKERS, check=pair_check("run_fb_sharded"))
    return to_tol + t_bounds + t_accel + t_shard, to_tol


def ggfl_warm_up(workdir):
    spec = SyntheticSpec(kind="graph-guided-fused-lasso", subnet_size=5, n_subnets=10,
                         n_active=2, n_samples=40)
    problem = _ready(spec).problem
    _ggfl_solvers(problem, Recorder(), Baseline(problem), "warm", 20, 5, 5)


def ggfl_rep(ctx):
    rec = ctx.rec
    setups, solve, to_tol = [], 0.0, 0.0
    for i in range(GGFL_INSTANCES):
        spec = SyntheticSpec(seed=ctx.seed * GGFL_INSTANCES + i, **GGFL_SPEC)
        generated, setup = rec.setup(_ready, spec)
        setups.append(setup)
        base = rec.quiet(Baseline, generated.problem)
        t_solve, t_tol = _ggfl_solvers(generated.problem, rec, base, f"i{i}", GGFL_WARM,
                                       GGFL_ACCEL_STEPS, GGFL_SHARD_STEPS)
        solve += t_solve
        to_tol += t_tol
    return {
        "setup": setups,
        "solve": solve,
        "phases": {"time_to_tol_s": to_tol / GGFL_INSTANCES},
    }


# -- cli-mix ----------------------------------------------------------------


def _write_config(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value}\n")
    return path


def _verb(argv):
    """``pdsplit.cli.main`` in-process, its printout captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _missing(directory, names):
    return [
        f"missing {name}" for name in names if not os.path.isfile(os.path.join(directory, name))
    ]


def _read_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def _cli_verbs(work, seed, rec, gen_values, run_values, scan_values, stoc_seeds, gens):
    """gen (``gens`` times), run and region-scan; returns the timings."""
    gen_out = os.path.join(work, "gen")
    run_out = os.path.join(work, "run")
    scan_out = os.path.join(work, "scan")
    gen_cfg = _write_config(os.path.join(work, "gen.cfg"), {**gen_values, "problem_seed": seed})
    run_cfg = _write_config(
        os.path.join(work, "run.cfg"),
        {**run_values, "bundle": os.path.join(gen_out, "bundle"),
         "seeds": ",".join(str(s) for s in stoc_seeds)},
    )
    scan_cfg = _write_config(os.path.join(work, "scan.cfg"), {**scan_values, "problem_seed": seed})

    # region-scan runs the default five kappas over a grid-by-grid table.
    scan_cells = 5 * int(scan_values["grid"]) ** 2

    def exit_code(code):
        return [] if code == 0 else [f"exit code {code}"]

    def gen_check(code):
        return exit_code(code) or _missing(os.path.join(gen_out, "bundle"), BUNDLE_FILES)

    def run_check(code):
        label = "stoc-kappa1"
        problems = exit_code(code) or _missing(
            run_out,
            ["summary.csv", f"{label}-aggregate.csv"]
            + [f"trace-{label}-seed{s}.csv" for s in stoc_seeds],
        ) or _missing(os.path.join(run_out, "reference"),
                      ["reference.txt", "solution_x.txt", "solution_y.txt"])
        if problems:
            return problems
        ref = bench.load_reference(os.path.join(run_out, "reference"))
        if ref.best_effort:
            problems.append(f"reference is best effort (residual {ref.residual_rel:.3g})")
        if not (_finite(ref.x, ref.y) and math.isfinite(ref.objective)):
            problems.append("non-finite reference")
        problems += rec.expect("reference.objective", ref.objective)
        rows = _read_csv(os.path.join(run_out, "summary.csv"))
        if len(rows) != len(stoc_seeds):
            problems.append(f"summary has {len(rows)} rows, want {len(stoc_seeds)}")
        for row in rows:
            value = float(row["final_objective"])
            if not math.isfinite(value):
                problems.append(f"{row['label']}: non-finite objective")
            else:
                problems += rec.expect(f"{row['label']}.objective", value)
        return problems

    def scan_check(code):
        problems = exit_code(code) or _missing(scan_out, ["region.csv"])
        if problems:
            return problems
        rows = _read_csv(os.path.join(scan_out, "region.csv"))
        if len(rows) != scan_cells:
            problems.append(f"region.csv has {len(rows)} cells, want {scan_cells}")
        return problems

    common = ["--seed", str(seed)]
    setups = []
    for _ in range(gens):
        shutil.rmtree(gen_out, ignore_errors=True)
        _, t = rec.op("cli.gen", _verb, ["gen", "--config", gen_cfg, "--out", gen_out, *common],
                      check=gen_check)
        setups.append(t)
    _, t_run = rec.op(
        "cli.run", _verb,
        ["run", "--config", run_cfg, "--out", run_out, "--jobs", str(CLI_JOBS), *common],
        check=run_check,
    )
    _, t_scan = rec.op("cli.region-scan", _verb,
                       ["region-scan", "--config", scan_cfg, "--out", scan_out, *common],
                       check=scan_check)
    return setups, t_run, t_scan


def cli_warm_up(workdir):
    work = tempfile.mkdtemp(prefix="warm-", dir=workdir)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _cli_verbs(
                work, 0, Recorder(),
                dict(problem="overlapping-group-lasso", n_groups=3, group_size=15, n_samples=30),
                {**CLI_RUN, "horizon": 20, "record_every": 5, "reference_budget": 50},
                {**CLI_SCAN, "grid": 2, "region_budget": 20},
                [0, 1], 1,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def cli_rep(ctx):
    work = tempfile.mkdtemp(prefix="cli-", dir=ctx.workdir)
    try:
        stoc_seeds = [ctx.seed * CLI_STOC_SEEDS + i for i in range(CLI_STOC_SEEDS)]
        setups, t_run, t_scan = _cli_verbs(
            work, ctx.seed, ctx.rec, CLI_GEN, CLI_RUN, CLI_SCAN, stoc_seeds, CLI_GENS
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "setup": setups,
        "solve": t_run + t_scan,
        "phases": {"cli_run_s": t_run, "cli_scan_s": t_scan},
    }


class Context:
    """Inputs of one repetition."""

    def __init__(self, seed, rec, workdir):
        self.seed = seed
        self.rec = rec
        self.workdir = workdir


def timed_rep(rep, ctx, tracer=None):
    """``(wall time, result)`` of one repetition, traced when given a tracer.

    The tracer's patches are in place only for this repetition.
    """
    if tracer is not None:
        tracer.reset()
        tracer.install()
        ctx.rec.tracer = tracer
    try:
        with tracer.enabled() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            result = rep(ctx)
            return time.perf_counter() - start, result
    finally:
        if tracer is not None:
            ctx.rec.tracer = None
            tracer.uninstall()


WORKLOADS = {
    "ogl-trace": (ogl_warm_up, ogl_rep),
    "ggfl-tol": (ggfl_warm_up, ggfl_rep),
    "cli-mix": (cli_warm_up, cli_rep),
}
