"""Self-check of the tracer behind the per-layer metrics.

Two checks, run by ``python3 perfbench/run.py --workload W --self-check``:

1. On a small overlapping-group problem, the coupling products per step of
   each solver, and the extra cost of one trace row, match the counts read
   off the code: ``run_fb`` 1 ``K`` and 2 ``K'`` per step, ``run_fbf`` 2 and
   2, ``run_accel`` 4 and 5 at kappa 0.5 and 4 and 3 in chen mode; a trace
   row adds 2 ``K`` products and 2 loss values.
2. Two traced repetitions of workload ``W`` give identical counts.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

from pdsplit import accel, bench, fb
from pdsplit.bench import SyntheticSpec

import spans
import workloads

STEPS = 20

# (K products, K' products) per step, by solver configuration.
PER_STEP = {
    "run_fb": (1, 2),
    "run_fbf": (2, 2),
    "run_accel kappa 0.5": (4, 5),
    "run_accel chen": (4, 3),
}
TRACE_ROW = {"linops.K.apply": 2, "saddle.loss.value": 2}


def _accel(problem, mode, kappa):
    omega_x, omega_y, _ = bench.auto_norm_bounds(problem, 50)
    q, r = accel.tune_qr("bounded", problem.L_f, problem.k_norm,
                         accel.mode_factors(mode, kappa), STEPS,
                         omega_x=omega_x, omega_y=omega_y)
    params = accel.AccelParams(mode=mode, kappa=kappa, setting="bounded",
                               omega_x=omega_x, omega_y=omega_y, q=q, r=r,
                               max_iters=STEPS, record_every=STEPS)
    return lambda: accel.run_accel(problem, params)


def _names(tracer):
    counts = {}
    for s in tracer.spans:
        counts[s.name] = counts.get(s.name, 0) + 1
    return counts


def check_products(tracer):
    """Check 1; returns a list of failure messages."""
    failures = []
    tracer.reset()
    tracer.install()
    with tracer.enabled():
        problem = bench.generate(SyntheticSpec(
            kind="overlapping-group-lasso", n_groups=5, group_size=15, n_samples=40,
        )).problem
        calls = {
            "run_fb": lambda: fb.run_fb(
                problem, fb.FbParams(kappa=0.0, max_iters=STEPS, record_every=STEPS)),
            "run_fbf": lambda: fb.run_fbf(problem, max_iters=STEPS, record_every=STEPS),
            "run_accel kappa 0.5": _accel(problem, "kappa", 0.5),
            "run_accel chen": _accel(problem, "chen", 0.0),
        }
        for label, call in calls.items():
            tracer.reset()
            call()
            (row,) = spans.step_counts(tracer.spans).values()
            got = (row.get("linops.K.apply", 0) / row["steps"],
                   row.get("linops.K.apply_adjoint", 0) / row["steps"])
            status = "ok" if got == PER_STEP[label] else "FAIL"
            print(f"{status} {label}: K, K' per step {got}, expected {PER_STEP[label]}")
            if got != PER_STEP[label]:
                failures.append(label)

        rows = {}
        for every in (1, STEPS):
            tracer.reset()
            fb.run_fb(problem, fb.FbParams(kappa=0.0, max_iters=STEPS, record_every=every))
            rows[every] = _names(tracer)
        extra_rows = STEPS - 1
        for name, want in TRACE_ROW.items():
            got = (rows[1].get(name, 0) - rows[STEPS].get(name, 0)) / extra_rows
            status = "ok" if got == want else "FAIL"
            print(f"{status} trace row: {got} {name} per row, expected {want}")
            if got != want:
                failures.append(f"trace row {name}")
    tracer.uninstall()
    return failures


def check_repeatable(warm_up, rep, ctx):
    """Check 2; returns a list of failure messages."""
    warm_up(ctx.workdir)
    counts = []
    for _ in range(2):
        ctx.rec = workloads.Recorder()
        tracer = spans.Tracer()
        workloads.timed_rep(rep, ctx, tracer)
        values = spans.layer_metrics(tracer.spans)
        counts.append({
            name: values[name]
            for name, unit in spans.PER_LAYER.items()
            if unit.startswith("count")
        })
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    if differ:
        for name in differ:
            print(f"FAIL repeat: {name} {counts[0][name]} then {counts[1][name]}")
    else:
        print(f"ok repeat: {len(counts[0])} counts identical over two traced repetitions")
    return differ


def main(warm_up, rep, ctx):
    failures = check_products(spans.Tracer()) + check_repeatable(warm_up, rep, ctx)
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0
