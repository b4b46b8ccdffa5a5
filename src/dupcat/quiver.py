"""Finite acyclic quivers, Dynkin classification, and the duplicated quiver.

The duplicated quiver of Q consists of Q, a primed copy Q', and one
connecting arrow x' -> y for every maximal path from y to x in Q (a path
from a source to a sink; such paths are exactly the ones whose dual-basis
generator survives modulo the square of the radical).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import CyclicQuiverError, QuiverSyntaxError


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


def _check_label(kind: str, label: str) -> None:
    # Trailing primes are reserved for the duplicated copy; apostrophes are
    # not allowed anywhere else in a label.
    core = label.rstrip("'")
    if not core or any(c.isspace() for c in label) or "'" in core:
        raise QuiverSyntaxError(
            f"bad {kind} {label!r}: labels must be nonempty, without spaces or '"
        )


class Quiver:
    """Finite acyclic quiver with named vertices and arrows (loops rejected)."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) for a in arrows)
        seen = set()
        for v in self.vertices:
            _check_label("vertex", v)
            if v in seen:
                raise QuiverSyntaxError(f"duplicate vertex {v!r}")
            seen.add(v)
        names = set()
        vertex_set = set(self.vertices)
        for a in self.arrows:
            _check_label("arrow name", a.name)
            if a.name in names:
                raise QuiverSyntaxError(f"duplicate arrow name {a.name!r}")
            names.add(a.name)
            if a.source not in vertex_set or a.target not in vertex_set:
                raise QuiverSyntaxError(f"arrow {a.name!r} has unknown endpoint")
            if a.source == a.target:
                raise CyclicQuiverError(f"loop at vertex {a.source!r}")
        self.arrows_from = {v: [] for v in self.vertices}
        self.arrows_into = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.arrows_from[a.source].append(a)
            self.arrows_into[a.target].append(a)
        self.arrow_by_name = {a.name: a for a in self.arrows}
        if self._has_cycle():
            raise CyclicQuiverError("quiver has an oriented cycle")

    def _has_cycle(self) -> bool:
        indeg = {v: len(self.arrows_into[v]) for v in self.vertices}
        queue = deque(v for v in self.vertices if indeg[v] == 0)
        seen = 0
        while queue:
            v = queue.popleft()
            seen += 1
            for a in self.arrows_from[v]:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
        return seen != len(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        # hashed on every session lookup and every cluster-object hash
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def as_text(self) -> str:
        lines = ["vertices " + " ".join(self.vertices)]
        lines += [f"arrow {a.name} {a.source} {a.target}" for a in self.arrows]
        return "\n".join(lines) + "\n"


def parse_quiver(text: str) -> Quiver:
    """Parse the line-oriented quiver format ('vertices ...' / 'arrow n s t')."""
    vertices = []
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if len(parts) < 2:
                raise QuiverSyntaxError(f"line {lineno}: empty vertices line")
            vertices.extend(parts[1:])
        elif parts[0] == "arrow":
            if len(parts) != 4:
                raise QuiverSyntaxError(
                    f"line {lineno}: expected 'arrow <name> <source> <target>'"
                )
            arrows.append(tuple(parts[1:]))
        else:
            raise QuiverSyntaxError(f"line {lineno}: unknown directive {parts[0]!r}")
    if not vertices:
        raise QuiverSyntaxError("no vertices declared")
    for label in vertices + [a[0] for a in arrows]:
        if "'" in label:
            raise QuiverSyntaxError(
                f"label {label!r}: primes are reserved for the duplicated copy"
            )
    return Quiver(vertices, arrows)


def opposite(q: Quiver) -> Quiver:
    """The quiver with all arrows reversed (same names)."""
    return Quiver(q.vertices, [(a.name, a.target, a.source) for a in q.arrows])


def sinks_and_sources(q: Quiver):
    sinks = tuple(v for v in q.vertices if not q.arrows_from[v])
    sources = tuple(v for v in q.vertices if not q.arrows_into[v])
    return sinks, sources


# -- Dynkin classification ----------------------------------------------


class DynkinType(NamedTuple):
    family: str  # "A", "D" or "E"
    rank: int

    def __str__(self):
        return f"{self.family}{self.rank}"


def classify_dynkin(q: Quiver) -> Optional[DynkinType]:
    """Classify the underlying undirected graph, or None when not Dynkin.

    Parallel arrows, disconnected graphs and cycles are all rejected; the
    answer does not depend on the orientation.
    """
    n = len(q.vertices)
    if n == 0:
        return None
    edges = [(a.source, a.target) for a in q.arrows]
    undirected = {frozenset(e) for e in edges}
    if len(undirected) != len(edges):
        return None  # parallel arrows
    if len(edges) != n - 1:
        return None  # a connected simple Dynkin graph is a tree
    adj = {v: set() for v in q.vertices}
    for s, t in edges:
        adj[s].add(t)
        adj[t].add(s)
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return None
    degrees = sorted(len(adj[v]) for v in q.vertices)
    if degrees and degrees[-1] <= 2:
        return DynkinType("A", n)
    branch = [v for v in q.vertices if len(adj[v]) >= 3]
    if len(branch) != 1 or len(adj[branch[0]]) != 3:
        return None
    legs = []
    for start in adj[branch[0]]:
        length, prev, cur = 1, branch[0], start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] != 1:
        return None
    if legs[1] == 1:
        return DynkinType("D", legs[2] + 3)
    if legs[1] == 2 and legs[2] in (2, 3, 4):
        return DynkinType("E", legs[2] + 4)
    return None


# -- paths ---------------------------------------------------------------


def paths_from(q: Quiver, x: str):
    """All paths starting at x, grouped by end vertex.

    A path is a tuple of arrow names; the empty tuple is the trivial path
    at x.  Order is deterministic: by length, then discovery.
    """
    out = {v: [] for v in q.vertices}
    queue = deque([(x, ())])
    while queue:
        v, path = queue.popleft()
        out[v].append(path)
        for a in q.arrows_from[v]:
            queue.append((a.target, path + (a.name,)))
    return out

def paths_into(q: Quiver, x: str):
    """All paths ending at x, grouped by start vertex (same encoding)."""
    out = {v: [] for v in q.vertices}
    queue = deque([(x, ())])
    while queue:
        v, path = queue.popleft()
        out[v].append(path)
        for a in q.arrows_into[v]:
            queue.append((a.source, (a.name,) + path))
    return out


class MaximalPath(NamedTuple):
    start: str
    end: str
    arrows: tuple

    @property
    def name(self) -> str:
        if not self.arrows:
            return f"D[e.{self.start}]"
        return "D[" + ".".join(self.arrows) + "]"


def maximal_paths(q: Quiver):
    """Source-to-sink paths: not extendable by any arrow at either end."""
    sinks, sources = sinks_and_sources(q)
    sink_set = set(sinks)
    result = []
    for s in sources:
        table = paths_from(q, s)
        for t in q.vertices:
            if t in sink_set:
                for p in table[t]:
                    result.append(MaximalPath(s, t, p))
    return result


# -- the duplicated quiver ------------------------------------------------


def prime(v: str) -> str:
    return v + "'"


class DupQuiverReport:
    """The quiver of the duplicated algebra, with diagnostics.

    ``hom_dims[(x, y)]`` is the dimension of the morphism space from the
    projective at x' to the projective at y, i.e. the number of paths from
    y to x in the base quiver.  Connecting arrows x' -> y correspond to the
    maximal paths from y to x.
    """

    def __init__(self, base: Quiver, primed: Quiver, dup: Quiver, connecting: tuple, hom_dims: dict):
        self.base = base
        self.primed = primed
        self.dup = dup
        self.connecting = connecting  # of (arrow_name, source_primed, target, MaximalPath)
        self.hom_dims = hom_dims

    def connecting_pairs(self):
        return tuple((src, tgt) for _, src, tgt, _ in self.connecting)

    @cached_property
    def composite_pattern(self):
        """Zero/commutativity pattern of the length-two junction composites.

        Computed from the action on the regular module; see
        :func:`dupcat.dup.junction_composite_pattern`.
        """
        from .dup import junction_composite_pattern

        return junction_composite_pattern(self.base)

    def as_text(self) -> str:
        lines = ["duplicated quiver"]
        lines.append("  vertices: " + " ".join(self.dup.vertices))
        lines.append("  base arrows: " + ", ".join(a.name for a in self.base.arrows))
        lines.append(
            "  primed arrows: " + ", ".join(a.name for a in self.primed.arrows)
        )
        lines.append(
            "  connecting arrows: "
            + ", ".join(f"{src}->{tgt}" for _, src, tgt, _ in self.connecting)
        )
        lines.append("  hom dimension table dim(P[x'] -> P[y]) (rows x, cols y):")
        header = "      " + " ".join(f"{y:>4}" for y in self.base.vertices)
        lines.append(header)
        for x in self.base.vertices:
            row = " ".join(f"{self.hom_dims[(x, y)]:>4}" for y in self.base.vertices)
            lines.append(f"  {x:>4} {row}")
        pat = self.composite_pattern
        lines.append(
            f"  junction composites: {pat.zero_count} vanish, "
            f"{pat.commuting_count} pairwise identified "
            f"(families: {pat.family_sizes})"
        )
        return "\n".join(lines) + "\n"


def duplicated_quiver(q: Quiver) -> DupQuiverReport:
    """Build the quiver of the duplicated algebra of the path algebra of q."""
    primed_q = Quiver(
        [prime(v) for v in q.vertices],
        [(prime(a.name), prime(a.source), prime(a.target)) for a in q.arrows],
    )
    connecting = []
    for mp in maximal_paths(q):
        # a maximal path y ~> x contributes the arrow x' -> y
        connecting.append((mp.name, prime(mp.end), mp.start, mp))
    dup = Quiver(
        list(q.vertices) + list(primed_q.vertices),
        [(a.name, a.source, a.target) for a in q.arrows]
        + [(a.name, a.source, a.target) for a in primed_q.arrows]
        + [(name, src, tgt) for name, src, tgt, _ in connecting],
    )
    hom_dims = {}
    for x in q.vertices:
        table = paths_into(q, x)
        for y in q.vertices:
            hom_dims[(x, y)] = len(table[y])
    return DupQuiverReport(q, primed_q, dup, tuple(connecting), hom_dims)
