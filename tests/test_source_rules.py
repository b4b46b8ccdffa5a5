"""Rules the library source keeps, checked on its syntax trees.

* No ``assert`` statement: ``python -O`` strips them, so every invariant
  raises a typed error instead.
* Every import is ``dupcat`` itself or the standard library: the runtime
  stays stdlib-only.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dupcat"


def _trees():
    files = sorted(SRC.rglob("*.py"))
    assert files
    return [(f.name, ast.parse(f.read_text(encoding="utf-8"))) for f in files]


def test_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported(node):
    """Top-level package names an import node reads; None for relative."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if node.level:
        return [None]
    return [node.module.split(".")[0]]


def test_imports_are_dupcat_or_stdlib():
    outside = [
        f"{name}:{node.lineno} {top}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for top in _imported(node)
        if top is not None and top != "dupcat" and top not in sys.stdlib_module_names
    ]
    assert outside == []
