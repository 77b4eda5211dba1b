"""Generators' bundle I/O, the reference solver and the rate-slope fit."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import CountingDenseOp
from pdsplit import bench, fb, linops, saddle
from pdsplit.errors import (
    ConfigError,
    ConstraintViolation,
    InsufficientData,
    InsufficientInactives,
    ResidualTooLarge,
)
from pdsplit.fb import IterTrace
from pdsplit.prox import BoxClip

SMALL_SPECS = [
    bench.SyntheticSpec(kind="overlapping-group-lasso", seed=5, n_groups=3,
                        group_size=12, n_samples=15),
    bench.SyntheticSpec(kind="graph-guided-fused-lasso", seed=6, subnet_size=4,
                        n_subnets=3, n_active=1, n_samples=14),
    bench.SyntheticSpec(kind="latent-group-lasso", seed=7, n_groups=3,
                        group_size=12, n_samples=15),
    bench.SyntheticSpec(kind="lasso", seed=8, dim=6, n_samples=9),
]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _assert_same_operator(op, k_mat):
    """``op`` stores exactly the CSR matrix ``k_mat``."""
    assert isinstance(op, linops.SparseOp)
    assert op.matrix.shape == k_mat.shape
    for name in ("indices", "indptr", "data"):
        got, want = getattr(op.matrix, name), getattr(k_mat, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.kind)
def test_bundle_round_trip_is_exact(tmp_path, spec):
    generated = bench.generate(spec)
    bench.save_bundle(str(tmp_path), generated)
    loaded = bench.load_bundle(str(tmp_path))
    assert _bits(loaded.design) == _bits(generated.design)
    assert _bits(loaded.response) == _bits(generated.response)
    assert _bits(loaded.signal) == _bits(generated.signal)
    assert _bits(oracles.densify(loaded.problem.K)) == _bits(
        oracles.densify(generated.problem.K))
    assert loaded.meta == generated.meta
    assert loaded.problem.dims == generated.problem.dims


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("key", ["primal_dim", "dual_dim"])
def test_a_bundle_whose_dimension_disagrees_with_its_matrices_is_refused(
        tmp_path, spec, key):
    bench.save_bundle(str(tmp_path), bench.generate(spec))
    meta = tmp_path / bench.BUNDLE_META
    lines = meta.read_text().splitlines(keepends=True)
    meta.write_text("".join(f"{key}=7\n" if l.startswith(f"{key}=") else l
                            for l in lines))
    with pytest.raises(ConfigError, match=f"meta.txt: {key}=7 disagrees"):
        bench.load_bundle(str(tmp_path))


def test_a_repeated_key_in_a_bundle_or_reference_is_refused(tmp_path):
    generated = bench.generate(SMALL_SPECS[-1])
    bench.save_bundle(str(tmp_path), generated)
    meta = tmp_path / bench.BUNDLE_META
    meta.write_text(meta.read_text() + "seed=3\n")
    with pytest.raises(ConfigError, match=r"meta.txt:\d+: duplicate key 'seed'"):
        bench.load_bundle(str(tmp_path))
    ref = bench.ReferenceSolution(x=np.array([1.0]), y=np.array([0.5]), objective=1.25,
                                  method="plain", iterations=7, residual_rel=1e-9,
                                  best_effort=False)
    bench.save_reference(str(tmp_path), ref)
    summary = tmp_path / bench.REFERENCE_SUMMARY
    summary.write_text(summary.read_text() + "iterations=8\n")
    with pytest.raises(ConfigError, match=r"reference.txt:\d+: duplicate key 'iterations'"):
        bench.load_reference(str(tmp_path))


def test_generate_and_load_bundle_return_generated_problems(tmp_path):
    generated = bench.generate(SMALL_SPECS[-1])
    bench.save_bundle(str(tmp_path), generated)
    for problem in (generated, bench.load_bundle(str(tmp_path))):
        assert type(problem) is bench.GeneratedProblem


# The benchmark's graph-guided instance size (p = 1,000, 14,400 edges).
GGFL_SIZE = dict(subnet_size=10, n_subnets=100, n_active=10, n_samples=200)
GRAPH_PARITY_SPECS = [
    dict(seed=1, **GGFL_SIZE),
    dict(seed=2, **GGFL_SIZE),
    dict(seed=3, subnet_size=4, n_subnets=20, n_active=0, n_samples=30),
    dict(seed=4, subnet_size=6, n_subnets=1, n_active=1, n_samples=20),
    dict(seed=5, subnet_size=1, n_subnets=70, n_active=1, n_samples=25),
    # The benchmark's warm-up instance.
    dict(seed=0, subnet_size=5, n_subnets=10, n_active=2, n_samples=40),
]


def _graph_spec(**values):
    return bench.SyntheticSpec(kind="graph-guided-fused-lasso", **values)


@pytest.mark.parametrize("values", GRAPH_PARITY_SPECS,
                         ids=lambda v: "-".join(f"{k}{v[k]}" for k in sorted(v)))
def test_graph_generation_is_bitwise_the_loop_oracle(values):
    spec = _graph_spec(**values)
    generated = bench.generate(spec)
    a, b, x_true, k_mat = oracles.clustered_graph_problem(
        spec.seed, spec.subnet_size, spec.n_subnets, spec.n_active, spec.n_samples,
        spec.noise_scale, bench.HUB_CORRELATION)
    rows = oracles.clustered_edge_count(spec.n_subnets, spec.subnet_size, spec.n_active)
    assert k_mat.shape == (rows, spec.primal_dim)
    assert generated.meta["n_edges"] == rows
    _assert_same_operator(generated.problem.K, k_mat)
    for got, want in ((generated.design, a), (generated.response, b),
                      (generated.signal, x_true)):
        assert got.dtype == want.dtype and _bits(got) == _bits(want)
    assert generated.meta == {
        "kind": spec.kind, "seed": spec.seed, "n_samples": spec.n_samples,
        "lam": 1.0, "noise_sd": spec.noise_scale, "primal_dim": spec.primal_dim,
        "dual_dim": rows, "subnet_size": spec.subnet_size, "n_subnets": spec.n_subnets,
        "n_active": spec.n_active, "n_edges": rows,
    }


CHAINED_PARITY_SPECS = [
    dict(kind="overlapping-group-lasso", seed=1, n_groups=10, group_size=20, n_samples=200),
    dict(kind="overlapping-group-lasso", seed=5, n_groups=3, group_size=12, n_samples=15),
    dict(kind="latent-group-lasso", seed=7, n_groups=3, group_size=12, n_samples=15),
    dict(kind="latent-group-lasso", seed=2, n_groups=6, group_size=15, n_samples=40),
    dict(kind="lasso", seed=8, dim=6, n_samples=9),
    dict(kind="lasso", seed=3, dim=120, n_samples=70, noise_sd=0.5),
]


@pytest.mark.parametrize("values", CHAINED_PARITY_SPECS,
                         ids=lambda v: "-".join(f"{k}{v[k]}" for k in sorted(v)))
def test_chained_group_generation_is_bitwise_the_oracle_draw(values):
    spec = bench.SyntheticSpec(**values)
    generated = bench.generate(spec)
    p = spec.primal_dim
    a, b, x_true = oracles.chained_group_problem(spec.seed, p, spec.n_samples,
                                                 spec.noise_scale)
    for got, want in ((generated.design, a), (generated.response, b),
                      (generated.signal, x_true)):
        assert got.dtype == want.dtype and _bits(got) == _bits(want)
    if spec.kind == "overlapping-group-lasso":
        groups = oracles.chained_group_indices(spec.n_groups, spec.group_size)
        _assert_same_operator(generated.problem.K, oracles.group_membership_coo(groups, p))
    elif spec.kind == "lasso":
        assert isinstance(generated.problem.K, linops.IdentityOp)


def test_graph_generation_without_silent_targets_fails_like_the_oracle():
    spec = _graph_spec(seed=4, subnet_size=3, n_subnets=4, n_active=4, n_samples=10)
    with pytest.raises(InsufficientInactives):
        bench.generate(spec)
    with pytest.raises(ValueError):
        oracles.clustered_graph_problem(4, 3, 4, 4, 10, 100.0, bench.HUB_CORRELATION)


def test_graph_generation_peak_memory_stays_near_the_held_problem():
    # At most twice what the generated problem holds: no full-size
    # temporaries of the design or the edge list outlive their use.
    spec = _graph_spec(seed=1, subnet_size=10, n_subnets=200, n_active=10, n_samples=200)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        generated = bench.generate(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert generated.meta["n_edges"] == 28900
    assert peak - base <= 2.0 * (held - base)


def _trace(ks, values):
    trace = IterTrace(["k", "ergodic_objective"])
    for k, v in zip(ks, values):
        trace.append(k=k, ergodic_objective=v)
    return trace


@pytest.mark.parametrize("power", [1, 2])
def test_rate_slope_recovers_power_laws(power):
    ks = np.arange(1, 1001, dtype=float)
    est = bench.rate_slope(_trace(ks, 5.0 + 3.0 * ks**-power), 5.0)
    assert abs(est.slope + power) <= 1e-9
    assert est.n_points == 901          # k = 100 .. 1000


def test_rate_slope_returns_a_rate_estimate():
    ks = np.arange(1, 101, dtype=float)
    est = bench.rate_slope(_trace(ks, 5.0 + 3.0 / ks), 5.0)
    assert type(est) is bench.RateEstimate


def test_rate_slope_needs_ten_usable_points():
    ks = np.arange(1, 10, dtype=float)
    with pytest.raises(InsufficientData):
        bench.rate_slope(_trace(ks, 5.0 + 3.0 / ks), 5.0)
    # Gaps at the rounding floor are not usable either.
    ks = np.arange(1, 101, dtype=float)
    with pytest.raises(InsufficientData):
        bench.rate_slope(_trace(ks, np.full(ks.size, 5.0)), 5.0)
    with pytest.raises(InsufficientData):
        bench.rate_slope(_trace([], []), 5.0)


def test_reference_matches_ista_on_tiny_lasso(tiny_lasso, tiny_lasso_reference):
    ref = tiny_lasso_reference
    lam = tiny_lasso.meta["lam"]
    x_star = oracles.ista_lasso(tiny_lasso.design, tiny_lasso.response, lam)
    f_star = oracles.lasso_objective(tiny_lasso.design, tiny_lasso.response, lam, x_star)
    assert not ref.best_effort
    assert ref.method == "plain"
    np.testing.assert_allclose(ref.x, x_star, rtol=0, atol=1e-9)
    assert ref.objective == pytest.approx(f_star, rel=1e-12)


def test_reference_residual_is_recomputed_independently(tiny_lasso,
                                                        tiny_lasso_reference):
    ref = tiny_lasso_reference
    problem = tiny_lasso.problem
    tau, sigma = fb.default_step_sizes(problem, 0.0)
    resid = saddle.fixed_point_residual(problem, ref.x, ref.y, tau, sigma)
    scale = 1.0 + np.linalg.norm(ref.x) + np.linalg.norm(ref.y)
    assert ref.residual_rel == pytest.approx(resid / scale, rel=1e-12, abs=1e-300)
    assert ref.residual_rel <= 1e-8


def test_reference_stops_at_its_certificate(tiny_lasso_reference):
    # Default budget: a 2,000-step warm start and a 100,000-step cap.
    assert tiny_lasso_reference.iterations <= (2000 + 100000) // 20


def test_reference_reports_best_effort_when_the_budget_is_short():
    spec = bench.SyntheticSpec(kind="graph-guided-fused-lasso", seed=6,
                               subnet_size=4, n_subnets=3, n_active=1,
                               n_samples=14)
    problem = bench.generate(spec).problem
    with pytest.warns(ResidualTooLarge):
        ref = bench.reference_solve(problem, budget=20)
    assert ref.best_effort
    assert ref.method == "accel-bounded-polish"
    assert ref.residual_rel > 1e-8


def test_reference_of_a_zero_coupling_problem_is_least_squares():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((9, 4))
    b = rng.standard_normal(9)
    problem = saddle.SaddleProblem(saddle.quadratic_loss(linops.DenseOp(a), b),
                                   linops.ZeroOp((3, 4)), BoxClip(1.0, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResidualTooLarge)
        ref = bench.reference_solve(problem, budget=2000)
    assert ref.method == "plain"
    np.testing.assert_allclose(ref.x, np.linalg.lstsq(a, b, rcond=None)[0],
                               rtol=0, atol=1e-7)
    np.testing.assert_array_equal(ref.y, np.zeros(3))


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("seed", np.float64(1.0)), ("n_samples", 20.0),
    ("n_groups", 2.5), ("group_size", 12.0), ("subnet_size", 4.0), ("n_subnets", False),
    ("n_active", 1.0), ("dim", "6"),
])
def test_spec_integer_fields_must_be_integers(field, value):
    with pytest.raises(ConstraintViolation, match=field):
        bench.SyntheticSpec(kind="lasso", **{field: value})
    spec = bench.SyntheticSpec(kind="lasso", **{field: np.int64(1)})
    assert getattr(spec, field) == 1


@pytest.mark.parametrize("field, value", [
    ("lam", True), ("noise_sd", False), ("lam", math.nan), ("noise_sd", math.inf),
    ("lam", "0.5"), ("noise_sd", np.bool_(True)),
])
def test_spec_real_fields_must_be_finite_numbers(field, value):
    with pytest.raises(ConstraintViolation, match=field):
        bench.SyntheticSpec(kind="lasso", **{field: value})
    for ok in (np.float64(0.5), 2):
        assert getattr(bench.SyntheticSpec(kind="lasso", **{field: ok}), field) == ok


@pytest.mark.parametrize("budget", [1, 0, 50.7, 50.0])
def test_reference_rejects_a_bad_budget_before_any_step(budget):
    rng = np.random.default_rng(42)
    design = CountingDenseOp(rng.standard_normal((8, 5)))
    problem = saddle.SaddleProblem(
        saddle.quadratic_loss(design, rng.standard_normal(8)),
        linops.IdentityOp(5), BoxClip(0.5, 5))
    # Norm estimates are cached first, so only solver steps would count.
    assert problem.L_f > 0.0 and problem.k_norm > 0.0
    design.forward = design.adjoint = 0
    with pytest.raises(ConstraintViolation):
        bench.reference_solve(problem, budget=budget)
    assert (design.forward, design.adjoint) == (0, 0)



@pytest.mark.parametrize("key", ["objective", "method", "iterations", "residual_rel",
                                 "best_effort"])
def test_a_reference_without_one_of_its_keys_is_a_config_error(tmp_path, key):
    ref = bench.ReferenceSolution(x=np.array([1.0, -2.0]), y=np.array([0.5]),
                                  objective=1.25, method="plain", iterations=7,
                                  residual_rel=1e-9, best_effort=False)
    bench.save_reference(str(tmp_path), ref)
    loaded = bench.load_reference(str(tmp_path))
    assert (loaded.method, loaded.iterations, loaded.best_effort) == ("plain", 7, False)
    summary = tmp_path / bench.REFERENCE_SUMMARY
    lines = summary.read_text().splitlines(keepends=True)
    summary.write_text("".join(l for l in lines if not l.startswith(f"{key}=")))
    with pytest.raises(ConfigError, match=f"reference.txt lacks a {key} entry"):
        bench.load_reference(str(tmp_path))


def test_loading_a_latent_bundle_estimates_the_design_norm_once(tmp_path, monkeypatch):
    generated = bench.generate(SMALL_SPECS[2])
    bench.save_bundle(str(tmp_path), generated)
    shapes = []
    op_norm = linops.op_norm

    def counting(op, *args, **kwargs):
        shapes.append(op.shape)
        return op_norm(op, *args, **kwargs)

    monkeypatch.setattr(linops, "op_norm", counting)
    loaded = bench.load_bundle(str(tmp_path))
    assert shapes == [generated.design.shape]
    assert loaded.problem.L_f == generated.problem.L_f
