"""Source hygiene: no module in the package imports a name it never uses.

Checked with the standard-library ast module, so it needs no linter. A
name counts as used when the module reads it anywhere (including in
annotations and as the base of an attribute access) or re-exports it
through __all__. The package __init__ is skipped: it imports to export.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracburst"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "detect.py", "solver.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = sorted(imported_names(tree) - used_names(tree))
    assert not dead, f"{path.name} imports names it never uses: {dead}"
