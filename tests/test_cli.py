"""Command-line runner: exit codes and the artifacts of each solver path."""

from pdsplit import cli

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
