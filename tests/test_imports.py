"""No module in the package or the tests imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule.  Every name an import
binds must be read somewhere in its module; names listed in ``__all__`` and
``from __future__`` imports count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "hcratio").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced, as 'name (line n)'."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_checker_flags_only_unread_names():
    src = ("from __future__ import annotations\n"
           "import os\nimport os.path as osp\nimport numpy.linalg\n"
           "from math import inf, pi\nfrom json import dumps\n"
           "__all__ = ['dumps']\n"
           "print(numpy.linalg.norm, pi)\n")
    assert unused_imports(src) == ["inf (line 5)", "os (line 2)", "osp (line 3)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
