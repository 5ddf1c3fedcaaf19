"""Source hygiene: no dead imports and no pass-through functions.

Checked with the standard-library ast module, so it needs no linter.

- No module in the package imports a name it never uses. A name counts
  as used when the module reads it anywhere (including in annotations and
  as the base of an attribute access) or re-exports it through __all__.
  The package __init__ is skipped: it imports to export.
- No package function only forwards its own parameters to another call
  (`def f(a, b): return g(a, b)`): such a function is a second name for
  one job, and the callers can call `g` directly.
- No module-level private name (`_name` bound by a def, a class or an
  assignment) goes unread by every package module. A stale helper or
  table that nothing reads any more is dead code.
- Each public name is written once: every library module (all but cli
  and __init__) defines __all__, no name is in two of them (a star
  import would shadow one silently), and fracburst.__all__ is
  "__version__" plus their union, each name the module's own object.
- Every name the demos import from fracburst, and every `fb.<name>` the
  benchmark reads, is in `fracburst.__all__`, and every call site the
  benchmark's tracer patches resolves. A removal from the public API
  then fails here instead of silently breaking a demo or the benchmark.
- `import fracburst` loads only the standard library and numpy, checked
  in a fresh interpreter.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracburst

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "fracburst"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
DEMOS = sorted((REPO / "demos").glob("*.py"))
BENCH = sorted((REPO / "bench").glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def declared_exports(tree: ast.Module) -> list[str] | None:
    """The module's literal __all__, or None when it assigns none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | set(declared_exports(tree) or ())


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "detect.py", "solver.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = sorted(imported_names(tree) - used_names(tree))
    assert not dead, f"{path.name} imports names it never uses: {dead}"


def parameter_names(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def is_pass_through(fn: ast.FunctionDef) -> bool:
    """True when fn's body, docstring aside, is `return g(<its parameters>)`."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    passed = list(call.args) + [kw.value for kw in call.keywords]
    if not all(isinstance(a, ast.Name) for a in passed):
        return False
    params = parameter_names(fn)
    return bool(params) and sorted(a.id for a in passed) == sorted(params)


def pass_through_functions(tree: ast.Module) -> list[str]:
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and is_pass_through(node))


def test_pass_through_detector():
    tree = ast.parse(
        "def fwd(a, b):\n    'doc'\n    return g(a, b)\n"
        "def kw(a, *, b):\n    return g(b=b, a=a)\n"
        "def partial(a, b):\n    return g(a)\n"
        "def shifted(a):\n    return g(a, 1)\n"
        "def computed(a):\n    return g(a + 1)\n"
        "def no_args():\n    return g()\n"
    )
    assert pass_through_functions(tree) == ["fwd", "kw"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_pass_through_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = pass_through_functions(tree)
    assert not found, f"{path.name} has functions that only forward their parameters: {found}"


def module_level_private_names(tree: ast.Module) -> set[str]:
    """`_name`s bound at module level, also inside module-level if/with/try."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for field in ("body", "orelse", "finalbody", "handlers"):
            stack.extend(getattr(node, field, []))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads: loads and attribute names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_names(trees: list[ast.Module]) -> list[str]:
    read = set().union(*(read_names(t) for t in trees))
    bound = set().union(*(module_level_private_names(t) for t in trees))
    return sorted(bound - read)


def test_unread_private_name_detector():
    used = ast.parse(
        "from .b import _shared\n"
        "def f():\n    return _shared + _TABLE[0] + _helper()\n"
    )
    defining = ast.parse(
        "_TABLE = (1, 2)\n"
        "_STALE = (3, 4)\n"
        "_shared = 1\n"
        "def _helper():\n    return 0\n"
        "def _orphan():\n    return _orphan_data\n"
        "class _Gone:\n    pass\n"
        "if True:\n    _nested = 5\n"
        "with ctx:\n    _in_with = 6\n"
        "__all__ = []\n"
    )
    assert unread_private_names([used, defining]) == [
        "_Gone", "_STALE", "_in_with", "_nested", "_orphan"]


def test_no_unread_private_names():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in ALL_MODULES]
    unread = unread_private_names(trees)
    assert not unread, f"module-level private names no package module reads: {unread}"


# ---------------------------------------------------------------------------
# the public API: each name written once, in its module's __all__

LIBRARY = [p for p in MODULES if p.name != "cli.py"]


def shared_exports(exports: dict[str, list[str]]) -> dict[str, list[str]]:
    """Each name that more than one module exports, with those modules."""
    owners: dict[str, list[str]] = {}
    for module, names in exports.items():
        for name in names:
            owners.setdefault(name, []).append(module)
    return {name: modules for name, modules in owners.items() if len(modules) > 1}


def test_shared_exports_detector():
    exports = {"a": ["f", "g"], "b": ["h", "f"], "c": ["k", "k"], "d": []}
    assert shared_exports(exports) == {"f": ["a", "b"], "k": ["c", "c"]}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_module_defines_all(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert declared_exports(tree) is not None, f"{path.name} defines no __all__"


def test_no_name_exported_by_two_modules():
    exports = {p.name: declared_exports(ast.parse(p.read_text(), filename=str(p))) or []
               for p in LIBRARY}
    shared = shared_exports(exports)
    assert not shared, f"names in more than one __all__, one shadowing the other: {shared}"


def test_package_exports_the_union_of_module_exports():
    owner = {name: module
             for module in (importlib.import_module(f"fracburst.{p.stem}") for p in LIBRARY)
             for name in module.__all__}
    assert sorted(fracburst.__all__) == sorted(["__version__", *owner])
    for name, module in owner.items():
        assert getattr(fracburst, name) is getattr(module, name), \
            f"fracburst.{name} is not {module.__name__}.{name}"


# ---------------------------------------------------------------------------
# demos and benchmark against the public API

def package_reads(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names taken by `from fracburst import ...`, non-dunder attributes
    read on a name bound by `import fracburst [as fb]`)."""
    imported, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fracburst":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname or alias.name
                           for alias in node.names if alias.name == "fracburst")
    attributes = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and not node.attr.startswith("__")}
    return imported, attributes


def test_package_reads_detector():
    tree = ast.parse(
        "import fracburst as fb\n"
        "import numpy as np\n"
        "from fracburst import solve, detect as d\n"
        "from fracburst.cli import main\n"
        "def f():\n"
        "    import fracburst\n"
        "    return fb.theorem_bound, fracburst.gamma, fracburst.__file__, np.pi\n"
    )
    assert package_reads(tree) == ({"solve", "detect"}, {"theorem_bound", "gamma"})


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_public(path):
    imported, attributes = package_reads(ast.parse(path.read_text(), filename=str(path)))
    assert imported, f"{path.name} imports nothing from fracburst"
    missing = sorted((imported | attributes) - set(fracburst.__all__))
    assert not missing, f"{path.name} uses names outside fracburst.__all__: {missing}"


def test_bench_package_reads_are_public():
    read = set()
    for path in BENCH:
        read |= package_reads(ast.parse(path.read_text(), filename=str(path)))[1]
    assert {"solve", "mittag_leffler"} <= read
    missing = sorted(read - set(fracburst.__all__))
    assert not missing, f"bench/ reads fb.<name> outside fracburst.__all__: {missing}"


def call_sites() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of CALL_SITES in bench/spans.py."""
    path = REPO / "bench" / "spans.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "CALL_SITES" for t in node.targets)):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("bench/spans.py defines no CALL_SITES")


@pytest.mark.parametrize("site", call_sites(), ids=".".join)
def test_bench_call_sites_resolve(site):
    module, attr = site
    assert callable(getattr(importlib.import_module(module), attr, None)), ".".join(site)


def test_import_loads_only_the_standard_library_and_numpy():
    # site startup may load third-party modules of its own, so compare
    # the modules loaded before and after the import
    code = ("import sys; before = set(sys.modules); import fracburst; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "fracburst" in loaded and "numpy" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"fracburst", "numpy"}
