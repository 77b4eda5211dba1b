"""The hooks that the benchmark tracer in ``perfbench/spans.py`` relies on.

The tracer patches ``grad``/``value`` on a problem's loss instance and
``apply``/``apply_adjoint`` on the leaf operator classes; a refactor that
hides the loss behind slots or routes products around those classes would
make the per-layer metrics read zero.
"""

import importlib.util
from pathlib import Path

import pytest

from pdsplit import bench, fb, linops, shard
from pdsplit.saddle import SmoothLoss

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_loss_and_both_operators_then_restores(spans):
    generated = bench.generate(bench.SyntheticSpec(
        kind="graph-guided-fused-lasso", seed=0, subnet_size=5, n_subnets=6,
        n_active=2, n_samples=40))
    problem = generated.problem
    originals = {
        (cls, d): vars(cls)[d]
        for cls in (linops.DenseOp, linops.SparseOp, linops.IdentityOp)
        for d in ("apply", "apply_adjoint")
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.register(generated)
        # Runners are called through their modules, where the tracer
        # patches them.
        params = fb.FbParams(max_iters=3, record_every=3)
        with tracer.enabled():
            fb.run_fb(problem, params)
        plain = {s.name for s in tracer.spans}
        tracer.reset()
        with tracer.enabled():
            shard.run_fb_sharded(problem, params, 3)
        sharded = {s.name for s in tracer.spans}
        in_steps = {s.name for s in tracer.spans
                    if s.parent >= 0 and tracer.spans[s.parent].name == "fb.fb_step"}
    finally:
        tracer.uninstall()
    assert {"saddle.loss.grad", "linops.K.apply", "linops.A.apply"} <= plain
    # The sharded run counts products on the problem's own operators, so
    # they reach the leaf classes and its steps' penalty products are named K.
    assert {"shard.run_fb_sharded", "linops.A.apply", "linops.A.apply_adjoint",
            "linops.K.apply", "linops.K.apply_adjoint"} <= sharded
    assert {"linops.K.apply", "linops.K.apply_adjoint"} <= in_steps
    assert "grad" not in vars(problem.loss)
    assert problem.loss.grad.__func__ is SmoothLoss.grad
    for (cls, d), method in originals.items():
        assert vars(cls)[d] is method
