"""Conjugate prox catalog: closed forms, identities, composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdsplit import prox
from pdsplit.errors import DegenerateProblem, DimensionError, UnknownKind

import oracles


def test_box_clip_pinned_values():
    spec = prox.BoxClip(1.0, 3)
    out = spec.prox(np.array([2.0, -0.5, -3.0]), 0.7)
    np.testing.assert_array_equal(out, [1.0, -0.5, -1.0])


def _primal_prox(spec, z, scale):
    """Prox of ``scale * h`` by the oracles' direct primal rules: soft
    threshold and block shrink."""
    if isinstance(spec, prox.BoxClip):
        return oracles.soft_threshold(z, scale * spec.lam)
    return oracles.group_shrink(z, spec.partition.sizes, scale * spec.radii)


def _moreau_prox_primal(spec, z, sigma):
    """Conjugate prox ``z - sigma * prox_{h / sigma}(z / sigma)``, reached
    through the primal rule."""
    return z - sigma * _primal_prox(spec, z / sigma, 1.0 / sigma)


def test_moreau_primal_route_matches_box_clip_scalar():
    spec = prox.BoxClip(1.0, 1)
    out = _moreau_prox_primal(spec, np.array([2.0]), 1.0)
    assert out[0] == pytest.approx(2.0 - 1.0)
    np.testing.assert_allclose(out, spec.prox(np.array([2.0]), 1.0), atol=1e-15)


def test_moreau_primal_route_matches_ball_projection():
    partition = prox.GroupPartition([4])
    spec = prox.GroupL2Balls(partition, [1.5])
    rng = np.random.default_rng(12)
    z = rng.standard_normal(4) * 3.0
    direct = oracles.group_ball_project(z, [4], [1.5])
    np.testing.assert_allclose(
        _moreau_prox_primal(spec, z, 2.0), direct, atol=1e-12
    )


def test_moreau_primal_route_fixes_origin():
    spec = prox.BoxClip(0.8, 3)
    np.testing.assert_array_equal(
        _moreau_prox_primal(spec, np.zeros(3), 1.7), np.zeros(3)
    )


def _moreau_cases():
    partition = prox.GroupPartition([2, 3])
    return [
        (prox.BoxClip(0.7, 5), 5),
        (prox.GroupL2Balls(prox.GroupPartition([5]), [1.2]), 5),
        (prox.GroupL2Balls(partition, [0.5, 2.0]), 5),
    ]


def test_moreau_identity_holds_for_supported_penalties():
    rng = np.random.default_rng(13)
    for spec, dim in _moreau_cases():
        for sigma in (0.25, 1.0, 3.5):
            z = rng.standard_normal(dim) * 4.0
            conj = spec.prox(z, sigma)
            primal = _primal_prox(spec, z / sigma, 1.0 / sigma)
            np.testing.assert_allclose(conj + sigma * primal, z, atol=1e-12)


def test_projection_prox_idempotent():
    rng = np.random.default_rng(14)
    specs = [
        prox.BoxClip(1.0, 4),
        prox.GroupL2Balls(prox.GroupPartition([2, 2]), [0.6, 1.1]),
    ]
    for spec in specs:
        z = rng.standard_normal(4) * 3.0
        once = spec.prox(z, 1.0)
        np.testing.assert_allclose(spec.prox(once, 1.0), once, atol=1e-12)


def test_prox_nonexpansive_on_random_pairs():
    rng = np.random.default_rng(15)
    specs = [
        prox.BoxClip(1.0, 6),
        prox.GroupL2Balls(prox.GroupPartition([3, 3]), [1.0, 0.4]),
        prox.IdentityShift(6, rng.standard_normal(6)),
    ]
    for spec in specs:
        for _ in range(100):
            z1 = rng.standard_normal(6) * 2.0
            z2 = rng.standard_normal(6) * 2.0
            gap = np.linalg.norm(spec.prox(z1, 0.9) - spec.prox(z2, 0.9))
            assert gap <= np.linalg.norm(z1 - z2) + 1e-10


def test_composite_equals_blockwise_concatenation():
    part_a = prox.BoxClip(1.0, 2)
    part_b = prox.IdentityShift(3, np.array([1.0, -1.0, 1.0]))
    spec = prox.Composite([part_a, part_b])
    rng = np.random.default_rng(16)
    v = rng.standard_normal(5)
    expected = np.concatenate([part_a.prox(v[:2], 0.6), part_b.prox(v[2:], 0.6)])
    np.testing.assert_array_equal(spec.prox(v, 0.6), expected)
    assert spec.dim == 5


def test_composite_values_add_and_propagate_infeasibility():
    spec = prox.Composite([prox.BoxClip(1.0, 2), prox.IdentityShift(1, [2.0])])
    assert oracles.conjugate_value(spec, np.array([0.5, -0.5, 3.0]), 0.0) == pytest.approx(6.0)
    assert oracles.conjugate_value(spec, np.array([1.5, 0.0, 0.0]), 0.0) == np.inf
    assert spec.primal_value(np.array([0.5, -2.0, 9.0])) == pytest.approx(2.5)


def test_composite_rejects_empty_and_foreign_parts():
    with pytest.raises(DegenerateProblem):
        prox.Composite([])
    with pytest.raises(UnknownKind):
        prox.Composite([prox.BoxClip(1.0, 2), "not a spec"])


def test_identity_shift_prox_and_value():
    shift = np.array([1.0, -2.0])
    spec = prox.IdentityShift(2, shift)
    v = np.array([0.5, 0.5])
    np.testing.assert_allclose(spec.prox(v, 3.0), v - 3.0 * shift)
    assert oracles.conjugate_value(spec, v, 0.0) == pytest.approx(float(shift @ v))
    plain = prox.IdentityShift(2)
    np.testing.assert_array_equal(plain.prox(v, 5.0), v)


def test_group_partition_blocks_cover_total():
    partition = prox.GroupPartition([2, 3, 1])
    assert partition.total == 6
    assert partition.n_blocks == 3
    np.testing.assert_array_equal(partition.offsets, [0, 2, 5, 6])


def test_feasibility_and_conj_values():
    spec = prox.BoxClip(1.0, 2)
    assert oracles.conjugate_value(spec, np.array([1.0, -1.0]), 1e-9) == 0.0
    assert oracles.conjugate_value(spec, np.array([1.1, 0.0]), 1e-9) == np.inf
    assert oracles.conjugate_value(spec, np.array([0.2, 0.3]), 0.0) == 0.0
    assert oracles.conjugate_value(spec, np.array([2.0, 0.0]), 0.0) == np.inf
    assert spec.primal_value(np.array([2.0, -3.0])) == pytest.approx(5.0)


def test_prox_conjugate_validates_step():
    spec = prox.BoxClip(1.0, 2)
    with pytest.raises(DimensionError):
        spec.prox(np.zeros(3), 1.0)


@settings(max_examples=50, deadline=None)
@given(
    z=hnp.arrays(np.float64, 4, elements=st.floats(-50, 50)),
    lam=st.floats(0.1, 5.0),
    sigma=st.floats(0.1, 10.0),
)
def test_box_clip_output_always_in_box(z, lam, sigma):
    out = prox.BoxClip(lam, 4).prox(z, sigma)
    assert np.all(np.abs(out) <= lam)


def _group_case():
    """Blocks that are zero, on their ball's boundary, inside, outside and
    of zero radius (one of those zero itself)."""
    sizes = [3, 2, 4, 1, 3, 2]
    radii = np.array([1.0, 2.5, 0.0, 0.5, 1.5, 0.0])
    v = np.concatenate([
        np.zeros(3),                    # zero block
        [1.5, -2.0],                    # norm exactly 2.5: on the boundary
        [0.3, -1.2, 0.7, 2.0],          # zero radius
        [0.2],                          # inside
        [3.0, -4.0, 1.0],               # outside
        np.zeros(2),                    # zero block of zero radius
    ])
    return sizes, radii, v


def test_group_l2_balls_prox_matches_per_block_oracle():
    sizes, radii, v = _group_case()
    spec = prox.GroupL2Balls(prox.GroupPartition(sizes), radii)
    out = spec.prox(v, 0.7)
    np.testing.assert_allclose(out, oracles.group_ball_project(v, sizes, radii),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(out[:5], v[:5])
    np.testing.assert_array_equal(out[5:9], 0.0)
    rng = np.random.default_rng(72)
    w = 3.0 * rng.standard_normal(v.size)
    np.testing.assert_allclose(spec.prox(w, 1.0), oracles.group_ball_project(w, sizes, radii),
                               rtol=1e-14, atol=0.0)


def test_group_l2_balls_values_match_per_block_oracle():
    sizes, radii, v = _group_case()
    spec = prox.GroupL2Balls(prox.GroupPartition(sizes), radii)
    assert spec.primal_value(v) == pytest.approx(
        oracles.group_norm_sum(v, sizes, radii), rel=1e-15)
    assert spec.primal_value(np.zeros(v.size)) == 0.0
    inside = v.copy()                   # feasible, one block on its boundary
    inside[5:9] = 0.0
    inside[10:13] = [0.6, -0.8, 0.0]
    nudged = inside.copy()
    nudged[3:5] *= 1.0 + 1e-10
    # The spec's partition and radii describe its balls.
    assert oracles.conjugate_value(spec, v, 0.0) == np.inf
    assert oracles.conjugate_value(spec, inside, 0.0) == 0.0
    assert oracles.conjugate_value(spec, nudged, 0.0) == np.inf
    assert oracles.conjugate_value(spec, nudged, 1e-9) == 0.0


@pytest.mark.parametrize("scale", [0.3, 1.0])
def test_group_primal_prox_matches_per_block_oracle(scale):
    sizes, radii, v = _group_case()
    spec = prox.GroupL2Balls(prox.GroupPartition(sizes), radii)
    # The primal prox through the Moreau identity on the package's projection.
    out = v - scale * spec.prox(v / scale, 1.0 / scale)
    np.testing.assert_allclose(out, oracles.group_shrink(v, sizes, scale * radii),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(out[5:9], v[5:9])
    if scale == 1.0:
        np.testing.assert_array_equal(out[3:5], 0.0)


# The class of each prox kind that ``_block_specs`` builds.
_CLASSES = {"box-clip": prox.BoxClip, "group-l2-balls": prox.GroupL2Balls,
            "identity-shift": prox.IdentityShift, "composite": prox.Composite}


def _block_specs():
    """One spec of every prox kind."""
    rng = np.random.default_rng(92)
    partition = prox.GroupPartition([3, 5, 1, 4])
    return {
        "box-clip": prox.BoxClip(0.7, 6),
        "group-l2-balls": prox.GroupL2Balls(partition, [0.5, 2.0, 0.1, 1.0]),
        "identity-shift": prox.IdentityShift(6, rng.standard_normal(6)),
        "composite": prox.Composite(
            [prox.GroupL2Balls(prox.GroupPartition([2, 2]), 0.8),
             prox.BoxClip(0.5, 3), prox.IdentityShift(2)]
        ),
    }


@pytest.mark.parametrize("kind", sorted(_block_specs()))
def test_block_prox_maps_each_column_bitwise(kind):
    spec = _block_specs()[kind]
    assert isinstance(spec, _CLASSES[kind])
    rng = np.random.default_rng(93)
    # Columns from deep inside to far outside every set, plus a zero column.
    scales = np.array([0.01, 0.3, 1.0, 3.0, 0.0])
    block = rng.standard_normal((spec.dim, scales.size)) * scales
    for width in (1, scales.size):
        got = spec.prox(block[:, :width], 0.6)
        want = oracles.column_by_column(lambda v: spec.prox(v, 0.6),
                                        block[:, :width])
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("kind", sorted(_block_specs()))
@pytest.mark.parametrize("width", [2, 5, 172])
def test_block_prox_takes_one_step_per_column(kind, width):
    spec = _block_specs()[kind]
    rng = np.random.default_rng(94)
    block = rng.standard_normal((spec.dim, width)) * rng.uniform(0.0, 3.0, width)
    sigma = rng.uniform(0.05, 4.0, width)
    got = spec.prox(block, sigma)
    for j in range(width):
        want = spec.prox(block[:, j].copy(), float(sigma[j]))
        assert got[:, j].tobytes() == want.tobytes()


def test_block_is_accepted_by_prox_only():
    spec = prox.BoxClip(1.0, 3)
    block = np.ones((3, 2))
    with pytest.raises(DimensionError):
        spec.primal_value(block)
    with pytest.raises(DimensionError):
        spec.prox(np.ones((4, 2)), 1.0)
    with pytest.raises(DimensionError):
        spec.prox(np.ones((3, 2, 1)), 1.0)


_WEIGHTED = {
    "box-clip": lambda w: prox.BoxClip(w, 3),
    "group-radius": lambda w: prox.GroupL2Balls(prox.GroupPartition([2, 1]), [1.0, w]),
    "group-radii": lambda w: prox.GroupL2Balls(prox.GroupPartition([2, 1]), w),
}


@pytest.mark.parametrize("weight", [np.nan, True, np.True_, "a", None, -1.0, -np.inf],
                         ids=repr)
@pytest.mark.parametrize("kind", sorted(_WEIGHTED))
def test_prox_weights_are_nonnegative_numbers(kind, weight):
    with pytest.raises(DegenerateProblem):
        _WEIGHTED[kind](weight)


@pytest.mark.parametrize("kind", sorted(_WEIGHTED))
def test_prox_weights_of_any_real_type_are_stored_as_floats(kind):
    for weight in (2, np.int64(2), np.float32(2.0), 2.0):
        spec = _WEIGHTED[kind](weight)
        stored = spec.radii if kind.startswith("group") else np.array([spec.lam])
        assert stored.dtype == float and stored[-1] == 2.0
