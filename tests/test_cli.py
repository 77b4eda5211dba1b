"""Command-line runner: exit codes."""

from pdsplit import cli

TINY_FBF = """\
problem=lasso
dim=5
n_samples=10
algorithm=fbf
max_iters=4
"""


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
