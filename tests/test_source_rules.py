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
* No finalizer: no ``__del__``, no ``weakref.finalize``, and no ``open``
  call outside a ``with``.  A command freezes its heap at exit, so what is
  alive then is never finalized.
* Every top-level function and every method has a caller in the library
  outside ``__init__.py``: a function only tests call belongs in the
  tests.  ``fixtures.py`` (builders for tests and demos) is exempt, and so
  is the API in ``NO_CALLER_IN_SRC``, which the README or a demo uses.
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
    "ModuleCategory.top": ("demos/03_duplicated_modules.py", "cat.top(pp)"),
    "DupQuiverReport.connecting_pairs": ("demos/01_quivers_and_duplication.py", "rep.connecting_pairs()"),
    "catalog_io.catalog_from_dict": ("demos/06_dot_and_json_export.py", "catalog_from_dict(json.loads(dumps(payload)))"),
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


def _opens_a_file(node):
    """True for a call of ``open`` or of an ``.open`` method."""
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "open")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")
    )


def _finalizers(tree):
    """Line numbers of the finalizers a module defines or relies on."""
    in_with = {
        id(item.context_expr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.With, ast.AsyncWith))
        for item in node.items
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__del__":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "finalize" and getattr(node.value, "id", None) == "weakref":
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "weakref" and any(a.name == "finalize" for a in node.names):
            yield node.lineno
        elif _opens_a_file(node) and id(node) not in in_with:
            yield node.lineno


def test_no_finalizers():
    """``cli.main`` registers ``gc.freeze`` with ``atexit``: at a command's
    exit every live object moves to the permanent generation, and those
    held in reference cycles are left to the OS, never finalized.  A
    ``__del__`` or ``weakref.finalize`` callback would not run, and a file
    opened outside a ``with`` might never be closed, losing a buffered
    write; so files go through ``Path.read_text``/``write_text`` or a
    ``with``."""
    found = [f"{name}:{line}" for name, tree in _trees() for line in _finalizers(tree)]
    assert found == []


def test_finalizer_rule_sees_each_form():
    source = """
import weakref
from weakref import finalize
class C:
    def __del__(self):
        pass
def f(path):
    handle = open(path)
    weakref.finalize(handle, print)
    with open(path) as ok, path.open() as fine:
        pass
    return path.open("w")
"""
    assert sorted(_finalizers(ast.parse(source))) == [3, 5, 8, 9, 12]


def _defined(name, tree):
    """(qualified name, module key, bare name) of the top-level functions,
    whose key is the module stem, and of the methods (not dunders, which
    Python calls) of the top-level classes, whose key is None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{name[:-3]}.{node.name}", name[:-3], node.name
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__")):
                    yield f"{node.name}.{m.name}", None, m.name


def _module_uses(name, tree):
    """(module stem, name) pairs the module ``name`` reads: each ``from .mod
    import f``, each ``mod.f`` on a module bound by ``from . import mod``,
    and each bare name, which reads its own module."""
    modules = {}  # local name -> module stem
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    yield node.module, alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield name[:-3], node.id
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            yield modules[node.value.id], node.attr


def test_every_library_function_has_a_caller_in_the_library():
    """A method counts as called when its bare name appears anywhere in the
    library; a top-level function only when its own module reads it, or
    another module imports it from there or reads it as an attribute of
    that module, so ``json.loads`` does not count for ``catalog_io.loads``."""
    trees = [(name, tree) for name, tree in _trees() if name != "__init__.py"]
    named = {
        n.id if isinstance(n, ast.Name) else n.attr
        for _, tree in trees
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    }
    used = {pair for name, tree in trees for pair in _module_uses(name, tree)}
    uncalled = {
        qualified
        for name, tree in trees
        if name != "fixtures.py"
        for qualified, module, bare in _defined(name, tree)
        if (bare not in named if module is None else (module, bare) not in used)
    }
    assert uncalled == set(NO_CALLER_IN_SRC)
    for path, line in NO_CALLER_IN_SRC.values():
        assert line in (ROOT / path).read_text(encoding="utf-8")


def test_caller_rule_reads_qualified_names():
    tree = ast.parse(
        "import json\nfrom . import reps\nfrom .cli import main\n"
        "def f(t):\n    return json.loads(t), reps.sum_rep, main\n"
    )
    uses = set(_module_uses("m.py", tree))
    assert {("reps", "sum_rep"), ("cli", "main"), ("m", "main"), ("m", "json")} <= uses
    assert not any(name == "loads" for _, name in uses)
