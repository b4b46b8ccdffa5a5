"""SHA-256 digests of every CLI output, to show that a change keeps them.

    python tools/output_digests.py [--src DIR] [--check FILE]

Each run is a fresh ``python -m dupcat.cli`` child with ``PYTHONPATH`` set
to ``--src`` (default: this checkout's ``src``), at most two at a time, and
one line ``<digest>  <run>`` is printed per run.  A digest covers the exit
code, stdout, stderr and, for a run with ``--out``, the file written.  The
runs:

* analyze, verify, verify --out, enumerate, enumerate --out, export and
  emit-dot on the A1-A4 (both A3), D4 and E6 fixtures, on every
  orientation of A5 and of D5 (16 each), and on A2 + A1 (representation-
  finite but not Dynkin, so ``export`` writes no left-part flags);
* verify --out and export --out on the E7 and E8 fixtures, and
  enumerate --out on E7 (its 4,160 cluster-tilting sets);
* analyze on the Kronecker fixture at --cap 15 and 50;
* analyze and verify on D4 at --cap 20, between |ind A| = 12 and the 36
  entries of the duplicated algebra;
* emit-dot --tilting-index K on D4 (K = 7) and on E6 (K = 400), whose
  diamonds are the free summands of tilting module K, and on D4 at K = 50,
  one past its last tilting module.

With ``--check FILE`` (a saved output of this script, say of the parent
commit) it exits 1 and names each run whose digest differs or is missing.
Stdlib only; the quiver files are written into a temporary directory and
passed by a relative path, so the bytes do not depend on where it lives.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
EVERY_COMMAND = [  # (command, writes --out)
    ("analyze", False),
    ("verify", False),
    ("verify", True),
    ("enumerate", False),
    ("enumerate", True),
    ("export", False),
    ("emit-dot", False),
]
# representation-finite, not Dynkin: A2 and an isolated vertex
NOT_DYNKIN = {"a2_a1.quiver": "vertices 1 2 3\narrow a 2 1\n"}
EDGES = {
    "a5": [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")],
    "d5": [("1", "2"), ("2", "3"), ("3", "4"), ("3", "5")],
}


def orientations(graph: str):
    """(name, quiver text) for every orientation of the edges of ``graph``."""
    edges = EDGES[graph]
    vertices = sorted({v for e in edges for v in e}, key=int)
    for flips in itertools.product((False, True), repeat=len(edges)):
        arrows = [(t, s) if flip else (s, t) for (s, t), flip in zip(edges, flips)]
        name = graph + "_" + "_".join(f"{s}{t}" for s, t in arrows)
        lines = ["vertices " + " ".join(vertices)]
        lines += [f"arrow a{i} {s} {t}" for i, (s, t) in enumerate(arrows, start=1)]
        yield name, "\n".join(lines) + "\n"


def inputs() -> dict:
    """Quiver file name -> its text."""
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.quiver"))}
    for graph in EDGES:
        texts.update((f"{name}.quiver", text) for name, text in orientations(graph))
    texts.update(NOT_DYNKIN)
    return texts


def runs(names) -> list:
    """(run name, quiver file name, command words, writes --out) per run."""
    everything = ["a1", "a2", "a2_a1", "a3_linear", "a3_zigzag", "a4", "d4", "e6"]
    everything += sorted(n[: -len(".quiver")] for n in names if n.startswith(("a5_", "d5_")))
    plan = [(name, command, (), to_file) for name in everything for command, to_file in EVERY_COMMAND]
    plan += [(name, command, (), True) for name in ("e7", "e8") for command in ("verify", "export")]
    plan += [("e7", "enumerate", (), True)]
    plan += [("kronecker", "analyze", ("--cap", cap), False) for cap in ("15", "50")]
    plan += [("d4", command, ("--cap", "20"), False) for command in ("analyze", "verify")]
    plan += [
        (name, "emit-dot", ("--tilting-index", k), False)
        for name, k in (("d4", "7"), ("e6", "400"), ("d4", "50"))
    ]
    return [
        (" ".join([command, f"{name}.quiver", *extra] + ["--out"] * to_file),
         f"{name}.quiver", [command, *extra], to_file)
        for name, command, extra, to_file in plan
    ]


def digest(workdir: Path, env: dict, index: int, run) -> str:
    _, quiver, words, to_file = run
    out = f"run{index}.out"
    argv = [sys.executable, "-m", "dupcat.cli", *words, "--quiver", quiver]
    if to_file:
        argv += ["--out", out]
    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, timeout=900)
    written = b""
    if to_file and (workdir / out).exists():
        written = (workdir / out).read_bytes()
        (workdir / out).unlink()
    h = hashlib.sha256()
    for part in (str(proc.returncode).encode(), proc.stdout, proc.stderr, written):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the dupcat package")
    parser.add_argument("--check", default=None, help="saved digests to compare with")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        texts = inputs()
        for name, text in texts.items():
            (workdir / name).write_text(text, encoding="utf-8")
        plan = runs(texts)
        with ThreadPoolExecutor(max_workers=2) as pool:
            digests = list(pool.map(lambda k: digest(workdir, env, k, plan[k]), range(len(plan))))
    lines = [f"{d}  {run[0]}" for d, run in zip(digests, plan)]
    print("\n".join(lines))
    if args.check is None:
        return 0
    saved = {}
    for line in Path(args.check).read_text(encoding="utf-8").splitlines():
        if line.strip():
            d, name = line.split("  ", 1)
            saved[name] = d
    differing = [run[0] for d, run in zip(digests, plan) if saved.get(run[0]) != d]
    for name in differing:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(plan) - len(differing)}/{len(plan)} runs match {args.check}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
