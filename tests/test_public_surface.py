"""``hcratio.__all__`` names the public surface; each name must resolve,
and the README's "Library surface" section must agree with it."""

import re
from pathlib import Path

import hcratio

README = Path(__file__).resolve().parent.parent / "README.md"

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
    assert len(hcratio.__all__) <= 42
    assert [n for n in MODULE_ONLY if hasattr(hcratio, n)] == []
    assert all(hasattr(hcratio.detect, n) or hasattr(hcratio.approx, n)
               for n in MODULE_ONLY)


def test_readme_library_surface_matches_the_package():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(from hcratio import \(.*?\))\n```",
                      section, re.S).group(1)
    exec(block, {})  # every name the README imports exists
    (count,) = re.findall(r"`hcratio.__all__` lists the public names \((\d+)\)",
                          section)
    assert int(count) == len(hcratio.__all__)
