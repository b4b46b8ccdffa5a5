"""Rules the library source keeps, checked on its syntax trees.

* No ``assert`` statement: ``python -O`` strips them, so every invariant
  raises a typed error instead.
* Every import is ``dupcat`` itself or the standard library: the runtime
  stays stdlib-only.
* No ``dataclasses``: importing it loads ``inspect``, ``ast``, ``dis`` and
  ``tokenize``, and each decorated class runs generated code, in every
  process before it computes anything.  Records are ``NamedTuple``s or
  plain classes, and ``import dupcat.cli`` loads neither ``dataclasses``
  nor ``inspect``.
* The check layer (``verify``, ``leftpart``, ``tilting``, ``cluster``)
  imports nothing from ``dupcat.linalg``: it reads the facts the module
  engine certified instead of solving systems of its own.
* Every top-level function and every method is named somewhere in the
  library outside ``__init__.py``: a function only tests call belongs in
  the tests.  ``fixtures.py`` (builders for tests and demos) is exempt, and
  so is the API in ``NO_CALLER_IN_SRC``, which the README or a demo uses.
"""

import ast
import json
import subprocess
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


def test_no_dataclasses_import():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "dataclasses" in _imported(node)
    ]
    assert found == []


_LOADED = """
import dupcat.cli, json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("dupcat", "dataclasses", "inspect"))))
"""


def test_cli_import_loads_every_module_and_no_dataclasses(src_env):
    """``import dupcat.cli`` loads every library module but ``fixtures``
    (the benchmark's layer tracer finds its functions among them) and
    neither ``dataclasses`` nor ``inspect``.  ``-S`` keeps the ``.pth``
    hooks of ``site`` from importing anything first."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED], env=src_env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    library = {f"dupcat.{f.stem}" for f in SRC.glob("*.py")} - {"dupcat.__init__", "dupcat.fixtures"}
    assert json.loads(proc.stdout) == sorted(library | {"dupcat"})


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
