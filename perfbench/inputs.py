"""Seeded benchmark inputs: random orientations of Dynkin graphs.

The seed only draws arrow orientations.  The program under test receives the
generated ``.quiver`` files, never the seed.
"""

from __future__ import annotations

import random

# Underlying graphs.  D5 is the chain 1-2-3-4 with vertex 5 attached to 3.
GRAPHS = {
    "A5": [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")],
    "D5": [("1", "2"), ("2", "3"), ("3", "4"), ("3", "5")],
}


def orient(graph: str, seed: int, salt: str):
    """Arrow list ``[(name, source, target), ...]`` with seeded orientations.

    ``salt`` separates the draws of different workloads sharing one seed.
    """
    rng = random.Random(f"{seed}:{salt}:{graph}")
    arrows = []
    for i, (u, v) in enumerate(GRAPHS[graph], start=1):
        s, t = (u, v) if rng.random() < 0.5 else (v, u)
        arrows.append((f"a{i}", s, t))
    return arrows


def quiver_text(graph: str, arrows) -> str:
    vertices = sorted({v for e in GRAPHS[graph] for v in e}, key=int)
    lines = [f"# type {graph}, seeded orientation", "vertices " + " ".join(vertices)]
    lines += [f"arrow {name} {s} {t}" for name, s, t in arrows]
    return "\n".join(lines) + "\n"


def orientation_key(arrows) -> str:
    """Compact name of an orientation, e.g. ``2>1,2>3``."""
    return ",".join(f"{s}>{t}" for _, s, t in arrows)
