"""Benchmark of the pdsplit solvers, generators and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ogl-trace --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of one traced
repetition.  ``--self-check`` checks the tracer instead (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

# Pin BLAS to one thread before numpy is first imported: one process per
# run and at most two Python threads keep the load within two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import pdsplit  # noqa: E402
import scipy  # noqa: E402

# Measure the checkout's own source, never an installed copy.
if not os.path.abspath(pdsplit.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"pdsplit was imported from {pdsplit.__file__}, not from {ROOT}/src")

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def _commit():
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def _expected(workload, seed):
    if seed != DEFAULT_SEED:
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def _repeat(rep, ctx, seconds):
    """``(wall time, result)`` of repetitions until ``seconds`` have passed.

    There is always at least one repetition.
    """
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(workloads.timed_rep(rep, ctx))
    return reps


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _phases(results):
    """Median of each phase time over the repetitions (0 where absent)."""
    return {
        key: statistics.median(r["phases"].get(key, 0.0) for r in results)
        for key in workloads.PHASES
    }


def run_timed(args, warm_up, rep, rec):
    warm_up(WORK_DIR)
    ctx = workloads.Context(args.seed, rec, WORK_DIR)
    reps = [result for _, result in _repeat(rep, ctx, args.seconds)]
    setups = [s for r in reps for s in r["setup"]]
    phases = _phases(reps)
    print("phases " + json.dumps({
        "reps": len(reps), "setups": len(setups), **phases,
        "solve_each_s": [r["solve"] for r in reps],
    }))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "solve_s": _metric(statistics.median(r["solve"] for r in reps), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
        "ok_ops_frac": _metric(1.0 - rec.failed / rec.attempted, "fraction"),
    }


def run_traced(args, warm_up, rep, rec):
    warm_up(WORK_DIR)
    ctx = workloads.Context(args.seed, rec, WORK_DIR)
    untraced = _repeat(rep, ctx, args.seconds)
    tracer = spans.Tracer()
    traced, _ = workloads.timed_rep(rep, ctx, tracer)
    path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path, {"workload": args.workload, "env": environment(args.seed)})
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    values = spans.layer_metrics(tracer.spans)
    metrics = {name: _metric(values[name], unit) for name, unit in spans.PER_LAYER.items()}
    for key, value in _phases([result for _, result in untraced]).items():
        metrics[key] = _metric(value, "s")
    untraced_wall = statistics.median(wall for wall, _ in untraced)
    metrics["trace.overhead_s"] = _metric(traced - untraced_wall, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the tracer's counts instead of measuring")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.makedirs(WORK_DIR, exist_ok=True)
    print("env " + json.dumps(environment(args.seed)))

    warm_up, rep = workloads.WORKLOADS[args.workload]
    if args.self_check:
        import selfcheck

        return selfcheck.main(warm_up, rep, workloads.Context(args.seed, None, WORK_DIR))

    rec = workloads.Recorder(expected=_expected(args.workload, args.seed))
    if args.trace:
        metrics = run_traced(args, warm_up, rep, rec)
    else:
        metrics = run_timed(args, warm_up, rep, rec)
    for failure in rec.failures:
        print("FAILED " + failure)
    print("outputs " + json.dumps(rec.outputs))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
