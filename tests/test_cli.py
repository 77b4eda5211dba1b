"""Command-line runner: exit codes and the artifacts of each solver path."""

import numpy as np

from pdsplit import bench, cli, fb

TINY = """\
problem=lasso
dim=5
n_samples=10
"""
TINY_FBF = TINY + "algorithm=fbf\nmax_iters=4\n"


def _run(tmp_path, text):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    return cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])


def test_run_writes_artifacts_and_exits_zero(tmp_path):
    assert _run(tmp_path, TINY_FBF + "record_every=2\n") == 0
    assert any((tmp_path / "out").iterdir())


def test_zero_recording_cadence_is_a_solver_error(tmp_path, capsys):
    assert _run(tmp_path, TINY_FBF + "record_every=0\n") == 2
    assert "recording cadence" in capsys.readouterr().err


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


def test_stoc_in_an_unproven_mode_is_a_solver_error(tmp_path, capsys):
    assert _run(tmp_path, TINY + "algorithm=stoc\nkappa=0.5\nhorizon=6\n") == 2
    assert "no stochastic guarantee" in capsys.readouterr().err


def test_region_scan_grid_counts_match_its_trace():
    spec = bench.SyntheticSpec(kind="lasso", seed=3, n_samples=10, dim=5, lam=0.5)
    problem = bench.generate(spec).problem
    kappas = [0.0, 0.5, 1.0]
    args = (problem, kappas, 3, 0.4, 5.0, 500, 1e-6)
    trace, n_ran, n_interior, n_agree = cli.region_scan_grid(*args)
    assert len(trace) == len(kappas) * 3 * 3
    ran = trace.column("ran") > 0
    interior = ran & (trace.column("interior") > 0)
    agree = interior & (trace.column("valid") == trace.column("converged"))
    assert (n_ran, n_interior, n_agree) == (ran.sum(), interior.sum(), agree.sum())
    # Both outcomes occur among the cells that ran.
    assert set(trace.column("converged")[ran]) == {0.0, 1.0}
    threaded = cli.region_scan_grid(*args, jobs=2)
    assert threaded[1:] == (n_ran, n_interior, n_agree)
    for column in cli.REGION_COLUMNS:
        np.testing.assert_array_equal(threaded[0].column(column), trace.column(column))


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
        params = fb.FbParams(kappa=cols["kappa"][i], tau=cols["tau"][i],
                             sigma=cols["sigma"][i], relaxation=1.0,
                             max_iters=5000, record_every=5000)
        res = fb.run_fb(problem, params, tol=1e-6, validate=False, record_mdist=False)
        assert res.converged and res.iterations <= 108
        assert res.trace.column("residual")[-1] == cols["residual"][i]
