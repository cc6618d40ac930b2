"""Import hygiene of the package modules.

Every name a package module imports must be read somewhere in it;
__init__.py is skipped, its imports are the package's re-exports. The
certificate replay in harness.py must not reach the engine's exact solver,
and neither engine.py nor harness.py imports formats: a failure carries its
graph, and only the command line writes it as text.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "indmatch"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_modules_are_found():
    assert len(MODULES) >= 5


def test_checker_flags_an_unused_import():
    source = "import os\nfrom heapq import heappop, heappush as push\npush([], 1)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "heappop")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert _unused_imports(module.read_text()) == []


def _references_outside(source, name, function):
    """Line numbers where name is read anywhere but inside the top-level
    function of that name, as a bare name or as an attribute."""
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            allowed.update(id(sub) for sub in ast.walk(node))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        )
    )


def test_checker_flags_a_reference_outside_the_function():
    source = (
        "from x import f\n"
        "def fuzz():\n    return f()\n"
        "def replay():\n    return f(), x.f\n"
    )
    assert _references_outside(source, "f", "fuzz") == [5, 5]


def test_replay_does_not_call_the_exact_solver():
    # The certificate replay re-checks EXACT steps with its own search; the
    # engine's solver serves only fuzz's cross-check against the optimum.
    source = (PACKAGE / "harness.py").read_text()
    assert _references_outside(source, "max_induced_matching", "fuzz") == []


def _formats_imports(source):
    """Line numbers of every import that reaches the formats module, at
    module level or inside a function."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "formats" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_a_formats_import():
    source = (
        "from .formats import format_graph\n"
        "def f():\n    from . import formats\n    import indmatch.formats\n"
        "from .graph import Graph\n"
    )
    assert _formats_imports(source) == [1, 3, 4]


@pytest.mark.parametrize("name", ["engine.py", "harness.py"])
def test_engine_and_replay_do_not_import_formats(name):
    assert _formats_imports((PACKAGE / name).read_text()) == []
