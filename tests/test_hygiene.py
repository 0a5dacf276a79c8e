"""Source hygiene checks that need no linter: every name a module of the
package imports is referenced in that module, and every private
module-level name is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cdsurface"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np\nimport os.path\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == [(1, "field"), (3, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def private_definitions(source: str) -> dict:
    """Module-level `_private` functions, classes and constants, by line
    (dunder names excluded)."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defs.update((name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__"))
    return defs


def references(source: str) -> set:
    """Names read in the source, as bare names or attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_unreferenced_private_names_are_found():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\n"
              "def _f():\n    return _A\nclass _C:\n    pass\n")
    defs = private_definitions(source)
    assert defs == {"_A": 1, "_B": 2, "_f": 4, "_C": 6}
    assert sorted(set(defs) - references(source)) == ["_B", "_C", "_f"]


@pytest.mark.parametrize("module", MODULES)
def test_private_names_are_referenced(module):
    used = set().union(*(references(p.read_text())
                         for p in SRC.glob("*.py")))
    defs = private_definitions((SRC / module).read_text())
    assert sorted((line, name) for name, line in defs.items()
                  if name not in used) == []
