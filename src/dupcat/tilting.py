"""Tilting modules over the duplicated algebra and the cluster bijection.

A tilting module here is classical: projective dimension at most one,
no self-extensions, and as many indecomposable summands as simples (2n).
Every projective-injective is forced to be a summand, so the search space
is the n-subsets of the non-projective-injective left-part members.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotDynkinError
from .quiver import Quiver, classify_dynkin
from .cluster import enumerate_cluster_tilting, pi_bar
from .dup import ext1_dup, is_isomorphic_dup, pd_dup, proj_primed
from .leftpart import left_part_catalog


@dataclass
class TiltingVerdict:
    passed: bool
    failures: list

    def __bool__(self):
        return self.passed


@dataclass
class TiltingModuleRecord:
    forced: tuple  # the n projective-injectives
    free: tuple  # n non-projective-injective left-part members
    verified: bool

    @property
    def summands(self):
        return self.free + self.forced


def is_tilting_module(summands) -> TiltingVerdict:
    """Check the tilting axioms for pairwise non-isomorphic indecomposables."""
    failures = []
    if not summands:
        return TiltingVerdict(False, ["empty summand list"])
    q = summands[0].base_quiver
    n2 = 2 * len(q.vertices)
    if len(summands) != n2:
        failures.append(f"expected {n2} summands, got {len(summands)}")
    for i, m in enumerate(summands):
        pd = pd_dup(m)
        if pd > 1:
            failures.append(f"summand {i} has projective dimension {pd}")
    for i, m in enumerate(summands):
        for j, n in enumerate(summands):
            if ext1_dup(m, n) != 0:
                failures.append(f"Ext^1(summand {i}, summand {j}) is nonzero")
    for x in q.vertices:
        pp = proj_primed(q, x)
        if not any(is_isomorphic_dup(s, pp) for s in summands):
            failures.append(f"projective-injective at {x}' is not a summand")
    return TiltingVerdict(not failures, failures)


def enumerate_L_tilting(q: Quiver):
    """All tilting modules whose non-projective-injective summands lie in
    the left part: the forced projective-injectives plus every rigid
    n-subset of the candidates."""
    if classify_dynkin(q) is None:
        raise NotDynkinError("tilting enumeration requires Dynkin type")
    lpc = left_part_catalog(q)
    candidates = sorted(
        lpc.non_proj_inj_members(),
        key=lambda m: (m.total_dim(), m.dim_vectors()),
    )
    forced = tuple(proj_primed(q, x) for x in q.vertices)
    n = len(q.vertices)
    count = len(candidates)
    rigid = [[False] * count for _ in range(count)]
    for i in range(count):
        assert ext1_dup(candidates[i], candidates[i]) == 0, "candidate not rigid"
        for j in range(i + 1, count):
            ok = (
                ext1_dup(candidates[i], candidates[j]) == 0
                and ext1_dup(candidates[j], candidates[i]) == 0
            )
            rigid[i][j] = rigid[j][i] = ok
    records = []

    def backtrack(start, chosen):
        if len(chosen) == n:
            records.append(
                TiltingModuleRecord(
                    forced, tuple(candidates[i] for i in chosen), True
                )
            )
            return
        for i in range(start, count):
            if count - i < n - len(chosen):
                break
            if all(rigid[i][j] for j in chosen):
                backtrack(i + 1, chosen + [i])

    backtrack(0, [])
    return records


@dataclass
class BijectionReport:
    left_count: int
    right_count: int
    matched: bool
    witnesses: list

    @property
    def passed(self):
        return self.matched

    def __bool__(self):
        return self.matched

    def as_dict(self):
        return {
            "check": "tilting-bijection",
            "tilting-modules": self.left_count,
            "cluster-tilting-objects": self.right_count,
            "passed": self.matched,
            "witnesses": list(self.witnesses),
        }


def verify_bijection(q: Quiver) -> BijectionReport:
    """Project every enumerated tilting module summand-wise and compare the
    image, as a set of sets, with the cluster-side enumeration."""
    records = enumerate_L_tilting(q)
    cluster_sets = {frozenset(s) for s in enumerate_cluster_tilting(q)}
    witnesses = []
    images = set()
    for rec in records:
        img = frozenset(pi_bar(m) for m in rec.free)
        if len(img) != len(rec.free):
            witnesses.append(f"projection not injective on {rec.free}")
        if img in images:
            witnesses.append(f"two tilting modules project to {sorted(map(str, img))}")
        images.add(img)
    for img in images - cluster_sets:
        witnesses.append(f"projected set not cluster-tilting: {img}")
    for extra in cluster_sets - images:
        witnesses.append(f"cluster-tilting set not hit: {extra}")
    matched = not witnesses and len(records) == len(cluster_sets)
    return BijectionReport(len(records), len(cluster_sets), matched, witnesses)


_DEGREES = {
    "A": lambda n: list(range(2, n + 2)),
    "D": lambda n: sorted(list(range(2, 2 * n - 1, 2)) + [n]),
    "E": lambda n: {
        6: [2, 5, 6, 8, 9, 12],
        7: [2, 6, 8, 10, 12, 14, 18],
        8: [2, 8, 12, 14, 18, 20, 24, 30],
    }[n],
}

_COXETER = {
    "A": lambda n: n + 1,
    "D": lambda n: 2 * (n - 1),
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
}


def expected_count(dynkin) -> int:
    """Product formula over the degrees with the Coxeter number: the number
    of clusters of the corresponding root system."""
    if dynkin is None or dynkin.family not in _DEGREES:
        raise ValueError(f"unsupported type {dynkin}")
    degrees = _DEGREES[dynkin.family](dynkin.rank)
    h = _COXETER[dynkin.family](dynkin.rank)
    prod = Fraction(1)
    for d in degrees:
        prod *= Fraction(d + h, d)
    assert prod.denominator == 1
    return int(prod)
