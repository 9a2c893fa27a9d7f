"""``hcratio.__all__`` names the public surface; each name must resolve."""

import hcratio


def test_all_names_resolve_once():
    assert [n for n in hcratio.__all__ if not hasattr(hcratio, n)] == []
    assert len(set(hcratio.__all__)) == len(hcratio.__all__)
