"""Size of the library source: its line count and its AST line classes.

    python tools/source_size.py [DIR]

For the ``.py`` files of DIR (default: this checkout's ``src/dupcat``) it
prints one row per file and a total row, each with

* ``lines``: the line count, as ``wc -l`` gives it;
* ``code``, ``docstring``, ``comment``, ``blank``: a partition of those
  lines.  A docstring line lies within the docstring of the module, a class
  or a function (by the spans of the syntax tree); of the other lines, a
  comment line holds only a comment, a blank line only whitespace, and every
  remaining line is code.

Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("lines", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers the docstrings of ``tree`` span."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.update(range(first.lineno, first.end_lineno + 1))
    return found


def measure(text: str) -> dict:
    """The counts of one file's text, keyed by ``COLUMNS``."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(COLUMNS, 0)
    counts["lines"] = text.count("\n")
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "dupcat"), help="directory of .py files")
    args = parser.parse_args(argv)
    files = sorted(Path(args.dir).glob("*.py"))
    if not files:
        print(f"no .py files in {args.dir}", file=sys.stderr)
        return 1
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'file':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in files:
        counts = measure(path.read_text(encoding="utf-8"))
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>10}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
