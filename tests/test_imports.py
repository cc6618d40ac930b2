"""Every name a package module imports must be read somewhere in it.

__init__.py is skipped: its imports are the package's re-exports.
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
