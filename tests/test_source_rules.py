"""Rules the library source keeps, checked on its syntax trees.

* No ``assert`` statement: ``python -O`` strips them, so every invariant
  raises a typed error instead.
* Every import is ``dupcat`` itself or the standard library: the runtime
  stays stdlib-only.
* The check layer (``verify``, ``leftpart``, ``tilting``, ``cluster``)
  imports nothing from ``dupcat.linalg``: it reads the facts the module
  engine certified instead of solving systems of its own.
* Every top-level function and every method is named somewhere in the
  library outside ``__init__.py``: a function only tests call belongs in
  the tests.  ``fixtures.py`` (builders for tests and demos) is exempt, and
  so is the API in ``NO_CALLER_IN_SRC``, which the README or a demo uses.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dupcat"

# name -> (file, text of the line that uses it)
NO_CALLER_IN_SRC = {
    "linalg.rref": ("README.md", "integer Gauss–Jordan for rref"),
    "ModuleCategory.top": ("demos/03_duplicated_modules.py", "cat.top(pp.rep())"),
    "DupQuiverReport.connecting_pairs": ("demos/01_quivers_and_duplication.py", "rep.connecting_pairs()"),
}


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


CHECK_LAYER = ("verify.py", "leftpart.py", "tilting.py", "cluster.py")


def _reads_linalg(node):
    """True when an import node reads ``dupcat.linalg``, absolutely or
    relative to the package."""
    if isinstance(node, ast.Import):
        return any(alias.name == "dupcat.linalg" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (
        node.module in ("linalg", "dupcat.linalg")
        or any(alias.name == "linalg" for alias in node.names)
    )


def test_check_layer_imports_nothing_from_linalg():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        if name in CHECK_LAYER
        for node in ast.walk(tree)
        if _reads_linalg(node)
    ]
    assert found == []


def _defined(name, tree):
    """Qualified names of the top-level functions and of the methods (not
    dunders, which Python calls) of the top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{name[:-3]}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__")):
                    yield f"{node.name}.{m.name}", m.name


def test_every_library_function_has_a_caller_in_the_library():
    trees = [(name, tree) for name, tree in _trees() if name != "__init__.py"]
    named = {
        n.id if isinstance(n, ast.Name) else n.attr
        for _, tree in trees
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    uncalled = {
        qualified
        for name, tree in trees
        if name != "fixtures.py"
        for qualified, bare in _defined(name, tree)
        if bare not in named
    }
    assert uncalled == set(NO_CALLER_IN_SRC)
    for path, line in NO_CALLER_IN_SRC.values():
        assert line in (ROOT / path).read_text(encoding="utf-8")
