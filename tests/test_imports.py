"""No module in the package or the tests imports a name it never uses, and
no private helper or public class member of the package is left unread.

A stdlib stand-in for a linter's unused-import and dead-code rules.  Every
name an import binds must be read somewhere in its module; names listed in
``__all__`` and ``from __future__`` imports count as used.  Every
module-level ``_name`` of the package must be read somewhere in the package.
Every public method and property of a package class must be taken as an
attribute somewhere in the package or the tests.
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` defs, classes and constants of the sources
    that no source reads, as 'module.name'.

    A name is read where it is loaded, taken as an attribute or imported.
    """
    defined = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for target in node.targets
                         for t in ast.walk(target) if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_private_checker_flags_only_unread_names():
    sources = {"a": ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
                     "def _f(): return _A\nclass _K: pass\n"
                     "def _g(): pass\n"),
               "b": "from .a import _g\nimport a\nprint(a._K)\n"}
    assert unread_private_names(sources) == ["a._B", "a._C", "a._f"]


def test_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in (ROOT / "src" / "hcratio").glob("*.py")}
    assert unread_private_names(sources) == []


def unread_public_members(package: dict[str, str],
                          readers: dict[str, str]) -> list[str]:
    """Public methods and properties of the package's classes that no
    source of ``package`` or ``readers`` takes as an attribute, as
    'Class.name'.  Dunders are exempt, as is every ``_name``."""
    defined = []
    read: set[str] = set()
    for module, source in {**package, **readers}.items():
        tree = ast.parse(source)
        if module in package:
            defined += [(node.name, f.name) for node in tree.body
                        if isinstance(node, ast.ClassDef)
                        for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("_")]
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    return [f"{cls}.{name}" for cls, name in defined if name not in read]


def test_member_checker_flags_only_unread_names():
    package = {"a": ("class K:\n"
                     "    size = 3\n"
                     "    def __len__(self): return 0\n"
                     "    def _hidden(self): pass\n"
                     "    def used(self): pass\n"
                     "    @property\n"
                     "    def seen(self): return 1\n"
                     "    def dead(self): pass\n"
                     "    @property\n"
                     "    def gone(self): return 2\n"
                     "def helper(k): return k.used()\n")}
    readers = {"t": "from a import K\nprint(K().seen)\n"}
    assert unread_public_members(package, readers) == ["K.dead", "K.gone"]


def test_no_unread_public_members():
    package = {f"hcratio.{p.stem}": p.read_text(encoding="utf-8")
               for p in (ROOT / "src" / "hcratio").glob("*.py")}
    readers = {f"tests.{p.stem}": p.read_text(encoding="utf-8")
               for p in (ROOT / "tests").glob("*.py")}
    assert unread_public_members(package, readers) == []
