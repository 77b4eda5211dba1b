"""The public surface: ``pdsplit.__all__`` names what the package exports."""

import pdsplit


def test_every_public_name_resolves_once_in_sorted_order():
    names = pdsplit.__all__
    for name in names:
        assert getattr(pdsplit, name) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)
