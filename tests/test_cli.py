"""Command-line runner: exit codes and the artifacts of each solver path."""

import dataclasses
import math
import threading

import numpy as np
import pytest

from pdsplit import accel, bench, cli, errors, fb, stoch, textio
from pdsplit.errors import ConfigError, NonFiniteIterate, SolverError
from pdsplit.prox import BoxClip
from pdsplit.saddle import SaddleProblem, quadratic_loss

import oracles
from conftest import CountingDenseOp, make_dense_problem

TINY = """\
problem=lasso
dim=5
n_samples=10
"""
TINY_FBF = TINY + "algorithm=fbf\nmax_iters=4\n"


def _verb(tmp_path, verb, text, out="out", jobs=1):
    config = tmp_path / f"{out}.cfg"
    config.write_text(text)
    return cli.main([verb, "--config", str(config), "--out", str(tmp_path / out),
                     "--jobs", str(jobs)])


def _run(tmp_path, text):
    return _verb(tmp_path, "run", text)


def _artifacts(out):
    """Every file under ``out``, minus the ``seconds`` column of trace CSVs."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            lines = path.read_text().splitlines()
            header = lines[0].split(",")
            if "seconds" in header:
                k = header.index("seconds")
                lines = [",".join(c for i, c in enumerate(line.split(",")) if i != k)
                         for line in lines]
            files[str(path.relative_to(out))] = lines
    return files


def test_gen_writes_the_bundle_that_run_reads(tmp_path):
    assert _verb(tmp_path, "gen", TINY) == 0
    bundle = tmp_path / "out" / "bundle"
    # The files that perfbench's cli-mix workload checks for.
    assert sorted(p.name for p in bundle.iterdir()) == sorted(
        ["meta.txt", "design.txt", "response.txt", "coupling.txt", "signal.txt"])
    text = f"bundle={bundle}\nalgorithm=fb\nmax_iters=3\n"
    assert _verb(tmp_path, "run", text, out="run") == 0


def test_reference_writes_the_solution(tmp_path):
    assert _verb(tmp_path, "reference", TINY + "reference_budget=2000\n") == 0
    reference = tmp_path / "out" / "reference"
    for name in ("reference.txt", "solution_x.txt", "solution_y.txt"):
        assert (reference / name).is_file()
    assert not bench.load_reference(str(reference)).best_effort


def test_region_scan_writes_one_row_per_cell(tmp_path):
    text = TINY + "kappas=0,0.5,1\ngrid=3\nregion_budget=50\n"
    assert _verb(tmp_path, "region-scan", text) == 0
    columns, values = textio.read_table(str(tmp_path / "out" / "region.csv"))
    assert list(columns) == cli.REGION_COLUMNS
    assert len(values) == 3 * 3**2


def test_run_fb_exits_zero(tmp_path):
    assert _verb(tmp_path, "run", TINY + "algorithm=fb\nmax_iters=5\n") == 0
    for name in ("summary.csv", "trace-fb-kappa0.csv"):
        assert (tmp_path / "out" / name).is_file()


@pytest.mark.parametrize("verb, text, named", [
    ("run", "algorithm=fb\nstep=1\n", "'step'"),
    ("run", "algorithm=fb\nalgorithm=fbf\n", "'algorithm'"),
    ("run", "algorithm fb\n", "key=value"),
    ("run", "bundle=elsewhere\nalgorithm=fb\n", "bundle"),
    ("region-scan", "grid=1\n", "grid"),
    ("region-scan", "region_budget=0\n", "region_budget"),
    ("run", "algorithm=fb\nmax_iters=2.5\n", "'max_iters'"),
    ("run", "algorithm=stoc\nseeds=[1.5, 2]\n", "'seeds'"),
    ("run", "algorithm=fb\ntau=true\n", "'tau'"),
    ("run", "algorithm=fb\ntol=NaN\n", "'tol'"),
    ("run", "algorithm=fb\ntau=Infinity\n", "'tau'"),
    ("run", "algorithm=fb\nlam=-Infinity\n", "'lam'"),
    ("run", "algorithm=stoc\nseeds=\n", "'seeds'"),
    ("run", "algorithm=accel\nmodes=[]\n", "'modes'"),
    ("region-scan", "kappas=\n", "'kappas'"),
    ("run", "algorithm=stoc\nseeds=1,1\n", "'seeds'"),
    ("run", "algorithm=stoc\nseeds=[2, 2.0]\n", "'seeds'"),
    ("run", "algorithm=accel\nmodes=0.5,0.5\n", "'modes'"),
    ("run", "algorithm=accel\nmodes=0.5,0.50\n", "'modes'"),
    ("run", "algorithm=accel\nmodes=chen,chen\n", "'modes'"),
    ("region-scan", "kappas=0.5,0.5\n", "'kappas'"),
])
def test_config_errors_exit_one_before_any_problem_or_output(
        tmp_path, monkeypatch, capsys, verb, text, named):
    generated = []
    monkeypatch.setattr(bench, "generate", generated.append)
    assert _verb(tmp_path, verb, TINY + text) == 1
    assert named in capsys.readouterr().err
    assert generated == []
    assert not (tmp_path / "out").exists()


_CADENCE = "record_every must be an integer in [1, inf), got 0"
_HORIZON = "horizon must be an integer in [2, inf) or None, got 1"
_TOLERANCE = "tolerance must be a real number in [0, inf] or None, got -1.0"


@pytest.mark.parametrize("algorithm, text, message", [
    ("fb", "record_every=0\n", _CADENCE),
    ("fbf", "record_every=0\n", _CADENCE),
    ("accel", "record_every=0\n", _CADENCE),
    ("stoc", "record_every=0\n", _CADENCE),
    ("accel", "setting=unbounded\nmax_iters=1\n", _HORIZON),
    ("stoc", "max_iters=1\n", _HORIZON),
    ("fb", "tol=-1\n", _TOLERANCE),
    ("fbf", "tol=-1\n", _TOLERANCE),
    ("stoc", "pi=1.5\n", "pi must be a finite number in (0, 1], got 1.5"),
    ("stoc", "seeds=-1\n", "seed must be an integer in [0, inf), got -1"),
    ("fb", "reference_budget=1\n", "reference budget must be an integer in [2, inf), got 1"),
])
def test_a_record_value_outside_its_domain_fails_before_the_problem_and_reference(
        tmp_path, monkeypatch, capsys, algorithm, text, message):
    generated = []
    monkeypatch.setattr(bench, "generate", generated.append)
    config = f"problem=lasso\ndim=10\nn_samples=30\nalgorithm={algorithm}\nreference=1\n"
    assert _run(tmp_path, config + text) == 2
    assert capsys.readouterr().err == f"solver error: {message}\n"
    assert generated == []
    assert not (tmp_path / "out" / "reference").exists()


@pytest.mark.parametrize("verb, text, message", [
    ("reference", "reference_budget=0\n",
     "reference budget must be an integer in [2, inf), got 0"),
    ("region-scan", "region_tol=-1\n",
     "tolerance must be a real number in [0, inf] or None, got -1.0"),
])
def test_a_budget_or_tolerance_outside_its_domain_fails_before_the_problem(
        tmp_path, monkeypatch, capsys, verb, text, message):
    generated = []
    monkeypatch.setattr(bench, "generate", generated.append)
    assert _verb(tmp_path, verb, TINY + text) == 2
    assert capsys.readouterr().err == f"solver error: {message}\n"
    assert generated == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, text, key, reader", [
    # Keys of the stochastic and accelerated runs on an fb run: the first is named.
    ("run", "algorithm=fb\npi=7\nseeds=-3\nchi_x=-2\nhorizon=1\nq=5\n", "pi", "algorithm=fb"),
    ("run", "algorithm=fb\nalpha1=0.5\n", "alpha1", "algorithm=fb"),
    ("run", "algorithm=fbf\nsigma=0.5\n", "sigma", "algorithm=fbf"),
    ("run", "algorithm=accel\nseeds=1,2\n", "seeds", "algorithm=accel"),
    ("run", "algorithm=stoc\nmodes=0.5,chen\n", "modes", "algorithm=stoc"),
    # ``modes`` sets each mode and kappa, and chen runs at kappa 0.
    ("run", "algorithm=accel\nmodes=0.5\nkappa=5\n", "kappa", "algorithm=accel with modes"),
    ("run", "algorithm=accel\nmodes=0.5\nmode=chen\n", "mode", "algorithm=accel with modes"),
    ("run", "algorithm=accel\nmode=chen\nkappa=0.5\n", "kappa",
     "algorithm=accel with mode=chen"),
    ("gen", "reference=1\n", "reference", "gen"),
    ("reference", "tau=0.1\n", "tau", "reference"),
    ("region-scan", "algorithm=fb\n", "algorithm", "region-scan"),
])
def test_a_key_that_the_verb_or_algorithm_does_not_read_exits_one_before_any_problem(
        tmp_path, monkeypatch, capsys, verb, text, key, reader):
    generated = []
    monkeypatch.setattr(bench, "generate", generated.append)
    assert _verb(tmp_path, verb, TINY + text) == 1
    assert capsys.readouterr().err == f"config error: config key {key!r} is not read by {reader}\n"
    assert generated == []
    assert not (tmp_path / "out").exists()


_ERRORS = [cls for cls in vars(errors).values()
           if isinstance(cls, type) and issubclass(cls, Exception)]


@pytest.mark.parametrize("error", _ERRORS, ids=lambda cls: cls.__name__)
def test_every_solver_error_but_a_config_error_exits_two(tmp_path, monkeypatch, capsys,
                                                         error):
    def fail(config, args):
        raise error("at the verb")

    monkeypatch.setitem(cli._VERBS, "gen", fail)
    if not issubclass(error, SolverError):
        with pytest.raises(error):
            _verb(tmp_path, "gen", TINY)
        return
    code, kind = (1, "config") if issubclass(error, ConfigError) else (2, "solver")
    assert _verb(tmp_path, "gen", TINY) == code
    assert capsys.readouterr().err == f"{kind} error: at the verb\n"


def _outcome(convert, value):
    try:
        return convert("key", value)
    except ConfigError:
        return "refused"


def test_every_record_field_is_a_key_of_its_builder_with_its_domains_converter():
    builders = {bench.SyntheticSpec: ["gen", "reference", "region-scan", "run"],
                fb.FbParams: ["algorithm=fb"], accel.AccelParams: ["algorithm=accel"],
                stoch.StocParams: ["algorithm=stoc"]}
    number = {"real": cli._as_float, "index": cli._as_int, "bool": cli._as_bool}
    probes = [3, 2.5, "0.5", True, "x", math.inf, "recipe", "kappa", "bounded"]
    for record, readers in builders.items():
        for f in dataclasses.fields(record):
            if f.name in ("kind", "seed", "unproven"):
                continue
            assert all(f.name in cli._READS[reader] for reader in readers), f.name
            domain = f.metadata["domain"]
            for value in probes:
                if value in domain.words:
                    want = value
                elif domain.kind == "word":
                    want = "refused"
                else:
                    want = _outcome(number[domain.kind], value)
                assert _outcome(cli._CONVERTERS[f.name], value) == want, (f.name, value)
    # Every key is read by some verb.
    assert set().union(*cli._READS.values()) == set(cli._CONVERTERS)


def test_fbf_on_a_bundle_with_no_design_or_coupling_entry_is_a_solver_error(tmp_path,
                                                                            capsys):
    text = ("problem=graph-guided-fused-lasso\nn_subnets=3\nn_active=1\nsubnet_size=3\n"
            "n_samples=12\n")
    assert _verb(tmp_path, "gen", text) == 0
    bundle = tmp_path / "out" / "bundle"
    for name in ("design.txt", "coupling.txt"):
        rows, cols, _ = (bundle / name).read_text().split("\n", 1)[0].split()
        (bundle / name).write_text(f"{rows} {cols} 0\n")
    capsys.readouterr()
    assert _verb(tmp_path, "run", f"bundle={bundle}\nalgorithm=fbf\n", out="run") == 2
    assert capsys.readouterr().err.startswith("solver error: ")


def test_a_failing_last_job_keeps_the_traces_of_the_jobs_before_it(tmp_path, monkeypatch, capsys):
    text = TINY + "algorithm=accel\nmodes=0.5,chen,0\nmax_iters=6\n"
    assert _verb(tmp_path, "run", text, out="whole") == 0
    run_accel, calls = accel.run_accel, []

    def third_call_fails(problem, params):
        calls.append(params.mode)
        if len(calls) == 3:
            raise NonFiniteIterate("the third job diverged")
        return run_accel(problem, params)

    monkeypatch.setattr(accel, "run_accel", third_call_fails)
    capsys.readouterr()
    assert _run(tmp_path, text) == 2
    assert capsys.readouterr().err == "solver error: the third job diverged\n"
    kept = _artifacts(tmp_path / "out")
    assert sorted(kept) == ["summary.csv", "trace-accel-chen-bounded.csv",
                            "trace-accel-kappa0.5-bounded.csv"]
    whole = _artifacts(tmp_path / "whole")
    # The summary holds the rows of the two finished jobs, in the order of the
    # whole run's summary.
    summary = whole["summary.csv"]
    whole["summary.csv"] = [row for row in summary if not row.startswith("accel-kappa0-")]
    assert len(whole["summary.csv"]) == len(summary) - 1 == 3
    assert all(kept[name] == whole[name] for name in kept)


def test_integral_floats_are_read_as_integers(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("grid=1e1\nseeds=[1.0, 2]\n")
    config = cli.parse_config(str(path))
    assert config.grid == 10 and isinstance(config.grid, int)
    assert config.seeds == [1, 2]


@pytest.mark.parametrize("verb, text", [
    ("run", TINY + "algorithm=accel\nmodes=0.5,chen\nmax_iters=6\n"),
    ("region-scan", TINY + "kappas=0,0.5\ngrid=3\nregion_budget=50\n"),
])
def test_jobs_starts_no_thread_and_changes_no_artifact(tmp_path, monkeypatch, verb, text):
    started = []

    def refuse(thread):
        started.append(thread)
        raise AssertionError("the CLI started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for jobs in (1, 2):
        assert _verb(tmp_path, verb, text, out=f"jobs{jobs}", jobs=jobs) == 0
    assert started == []
    serial = _artifacts(tmp_path / "jobs1")
    assert serial and _artifacts(tmp_path / "jobs2") == serial


def test_run_writes_artifacts_and_exits_zero(tmp_path):
    assert _run(tmp_path, TINY_FBF + "record_every=2\n") == 0
    assert any((tmp_path / "out").iterdir())


def test_zero_recording_cadence_is_a_solver_error(tmp_path, capsys):
    assert _run(tmp_path, TINY_FBF + "record_every=0\n") == 2
    assert "record_every" in capsys.readouterr().err


def test_accel_modes_write_one_trace_per_mode(tmp_path):
    assert _run(tmp_path, TINY + "algorithm=accel\nmodes=0.5,chen\nmax_iters=6\n") == 0
    out = tmp_path / "out"
    for name in ("summary.csv", "trace-accel-kappa0.5-bounded.csv",
                 "trace-accel-chen-bounded.csv"):
        assert (out / name).is_file()


def test_stoc_in_a_proven_mode_writes_the_aggregate(tmp_path):
    config = TINY + "algorithm=stoc\nkappa=1\nhorizon=6\nseeds=0,1\n"
    assert _run(tmp_path, config) == 0
    assert (tmp_path / "out" / "stoc-kappa1-aggregate.csv").is_file()


def test_an_overflowing_response_is_a_solver_error(tmp_path, capsys):
    text = ("problem=graph-guided-fused-lasso\nn_subnets=6\nn_active=2\nn_samples=40\n"
            "noise_sd=1e300\nalgorithm=fb\nmax_iters=3\n")
    assert _run(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "solver error: the loss at zero, 0.5 * ||b||^2, is inf" in err
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_stoc_in_an_unproven_mode_is_a_solver_error(tmp_path, capsys):
    assert _run(tmp_path, TINY + "algorithm=stoc\nkappa=0.5\nhorizon=6\n") == 2
    assert "no stochastic guarantee" in capsys.readouterr().err


def test_region_scan_grid_counts_match_its_trace():
    spec = bench.SyntheticSpec(kind="lasso", seed=3, n_samples=10, dim=5, lam=0.5)
    problem = bench.generate(spec).problem
    kappas = [0.0, 0.5, 1.0]
    args = (problem, kappas, 3, 0.4, 5.0, 500, 1e-6)
    for empirics, runs in (("interior", 25), ("all", 27), ("none", 0)):
        trace, n_ran, n_interior, n_agree = cli.region_scan_grid(*args, empirics=empirics)
        assert len(trace) == len(kappas) * 3 * 3
        ran = trace.column("ran") > 0
        interior = ran & (trace.column("interior") > 0)
        agree = interior & (trace.column("valid") == trace.column("converged"))
        assert (n_ran, n_interior, n_agree) == (ran.sum(), interior.sum(), agree.sum())
        assert n_ran == runs
        # Every cell, run or not, is bitwise the cell of one run_fb per cell.
        cells = oracles.region_scan_cells(*args, empirics=empirics)
        for name in cli.REGION_COLUMNS:
            want = np.array([cell[name] for cell in cells], dtype=float)
            assert trace.column(name).tobytes() == want.tobytes(), (empirics, name)
        if empirics != "none":
            # Both outcomes occur among the cells that ran.
            assert set(trace.column("converged")[ran]) == {0.0, 1.0}
        if empirics == "all":
            # Cells outside the region also leave the finite range.
            assert np.isinf(trace.column("residual")).sum() == 9


def test_region_scan_misses_are_region_errors_not_budget_limits():
    # The scan of the benchmark's CLI workload: lasso, dim 10, 30 samples,
    # seed 1, grid 6, budget 500, the default kappas, span and tolerance.
    spec = bench.SyntheticSpec(kind="lasso", seed=1, n_samples=30, dim=10)
    problem = bench.generate(spec).problem
    trace, _, n_interior, n_agree = cli.region_scan_grid(
        problem, [0.0, 0.25, 0.5, 0.75, 1.0], 6, 0.4, 5.0, 500, 1e-6)
    assert (n_interior, n_agree) == (172, 161)
    cols = {c: trace.column(c) for c in cli.REGION_COLUMNS}
    miss = (cols["interior"] > 0) & (cols["valid"] != cols["converged"])
    assert miss.sum() == 11
    # Every miss is a cell the region test rejects with a margin beyond the
    # interior slack and that converges anyway: the region is sufficient,
    # not necessary, for this problem.
    assert (cols["valid"][miss] == 0).all() and (cols["converged"][miss] == 1).all()
    # Ten times the budget changes nothing: each miss converges in at most
    # 108 steps, far inside the scan's 500.
    for i in np.flatnonzero(miss):
        k, converged, residual = oracles.plain_fb_run(
            problem, cols["kappa"][i], cols["tau"][i], cols["sigma"][i], 5000, 1e-6)
        assert converged and k <= 108
        assert residual == cols["residual"][i]


def test_region_scan_products_per_block_step_do_not_grow_with_cells(monkeypatch):
    _, a, b, k = make_dense_problem(p=6, l=4, seed=23)
    design, coupling = CountingDenseOp(a), CountingDenseOp(k)
    problem = SaddleProblem(quadratic_loss(design, b), coupling, BoxClip(1.0, 4))
    assert problem.k_norm > 0.0
    counters = (coupling, design)
    step = fb.fb_step
    calls = []

    def counted_step(*args):
        before = [(op.forward, op.adjoint) for op in counters]
        out = step(*args)
        after = [(op.forward, op.adjoint) for op in counters]
        calls.append(tuple(hi - lo for pair in zip(before, after) for lo, hi in zip(*pair)))
        return out

    monkeypatch.setattr(fb, "fb_step", counted_step)
    for grid in (2, 6):
        calls.clear()
        for op in counters:
            op.forward = op.adjoint = 0
        trace, n_ran, _, _ = cli.region_scan_grid(
            problem, [0.0, 0.5, 1.0], grid, 0.4, 5.0, 300, 1e-6, empirics="all")
        assert n_ran == 3 * grid * grid
        # One block step per iteration of the longest cell, whatever the
        # cell count, and each makes one K, two K', no A and one A' product.
        assert set(calls) == {(1, 2, 0, 1)}
        assert len(calls) == 300
        # Besides the steps: one design product per step and at the start,
        # and per recorded row (at most one per cell) two K products for the
        # objectives and one K' for the metric distance.
        assert design.forward == len(calls) + 1 and design.adjoint == len(calls)
        rows = coupling.adjoint - 2 * len(calls)
        assert 0 < rows <= n_ran
        assert coupling.forward == len(calls) + 2 * rows
