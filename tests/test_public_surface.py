"""``hcratio.__all__`` names the public surface; each name must resolve."""

import hcratio

# stage internals that live only in hcratio.detect and hcratio.approx
MODULE_ONLY = [
    "Partition", "Bipartition", "Claw", "minimal_valid_partition",
    "detect_claw", "case1_bipartition", "case2_bipartition", "valid_bisect",
    "zero_base_cost_tree", "RootedTripletConstraint", "build_constraints",
    "rtc_build",
]


def test_all_names_resolve_once():
    assert [n for n in hcratio.__all__ if not hasattr(hcratio, n)] == []
    assert len(set(hcratio.__all__)) == len(hcratio.__all__)


def test_stage_internals_stay_in_their_modules():
    assert len(hcratio.__all__) <= 49
    assert [n for n in MODULE_ONLY if hasattr(hcratio, n)] == []
    assert all(hasattr(hcratio.detect, n) or hasattr(hcratio.approx, n)
               for n in MODULE_ONLY)
