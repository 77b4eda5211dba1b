"""Generators' bundle I/O and the rate-slope fit."""

import numpy as np
import pytest

from pdsplit import bench, linops
from pdsplit.errors import InsufficientData
from pdsplit.fb import IterTrace

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


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: s.kind)
def test_bundle_round_trip_is_exact(tmp_path, spec):
    generated = bench.generate(spec)
    bench.save_bundle(str(tmp_path), generated)
    loaded = bench.load_bundle(str(tmp_path))
    assert _bits(loaded.design) == _bits(generated.design)
    assert _bits(loaded.response) == _bits(generated.response)
    assert _bits(loaded.signal) == _bits(generated.signal)
    assert _bits(linops.densify(loaded.problem.K)) == _bits(
        linops.densify(generated.problem.K))
    assert loaded.meta == generated.meta
    assert loaded.problem.dims == generated.problem.dims


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
