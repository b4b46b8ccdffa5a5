"""Tilting modules over the duplicated algebra and the cluster bijection.

A tilting module here is classical: projective dimension at most one,
no self-extensions, and as many indecomposable summands as simples (2n).
Every projective-injective is forced to be a summand, so the search space
is the n-subsets of the non-projective-injective left-part members.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import CatalogError
from .quiver import Quiver
from .cluster import cliques, ext1_mismatches, fundamental_domain
from .dup import dup_category, knit_ind_dup, proj_primed
from .leftpart import left_part_catalog
from .session import session


class TiltingVerdict(NamedTuple):
    passed: bool
    failures: list

    def __bool__(self):
        return self.passed


class TiltingModuleRecord(NamedTuple):
    forced: tuple  # the n projective-injectives
    free: tuple  # n non-projective-injective left-part members

    @property
    def summands(self):
        return self.free + self.forced


def is_tilting_module(q: Quiver, summands) -> TiltingVerdict:
    """Check the tilting axioms for pairwise non-isomorphic indecomposable
    modules of the duplicated algebra of q.

    The summands are looked up in the knitted catalog of the duplicated
    algebra, whose ``pd_table`` says which have projective dimension <= 1
    (the exact one is computed only for a failure) and whose
    ``ext1_dim`` gives Ext^1 off the hom table.  Ext^1 is checked from the
    summands of projective dimension <= 1 only: each other one has already
    failed the first axiom."""
    failures = []
    if not summands:
        return TiltingVerdict(False, ["empty summand list"])
    cat = knit_ind_dup(q)
    found = cat.indices(summands)
    n2 = 2 * len(q.vertices)
    if len(summands) != n2:
        failures.append(f"expected {n2} summands, got {len(summands)}")
    for i, k in enumerate(found):
        if not cat.pd_table[k]:
            failures.append(f"summand {i} has projective dimension {dup_category(q).pd(cat.entries[k])}")
    for i, k in enumerate(found):
        if not cat.pd_table[k]:
            continue
        for j, l in enumerate(found):
            if cat.ext1_dim(k, l) != 0:
                failures.append(f"Ext^1(summand {i}, summand {j}) is nonzero")
    primed = cat.indices([proj_primed(q, x) for x in q.vertices])
    for x, k in zip(q.vertices, primed):
        if k not in found:
            failures.append(f"projective-injective at {x}' is not a summand")
    return TiltingVerdict(not failures, failures)


def enumerate_L_tilting(q: Quiver):
    """All tilting modules whose non-projective-injective summands lie in
    the left part: the forced projective-injectives plus every rigid
    n-subset of the candidates.

    Every candidate has projective dimension <= 1 (certified when the left
    part is built), so Ext^1 between candidates is read off the hom table
    of the knitted catalog by the AR formula (``DupCatalog.ext1_dim``).
    Off Dynkin type the left part raises NotDynkinError."""
    lp = left_part_catalog(q)
    cat = knit_ind_dup(q)
    entries = cat.entries
    found = sorted(
        lp.non_proj_inj,
        key=lambda k: (entries[k].total_dim(), entries[k].dim_vector()),  # the vector is X, then Y
    )
    forced = tuple(proj_primed(q, x) for x in q.vertices)
    n = len(q.vertices)
    rigid = [0] * len(found)
    for i, k in enumerate(found):
        if cat.ext1_dim(k, k) != 0:
            raise CatalogError("candidate not rigid")
        for j in range(i + 1, len(found)):
            l = found[j]
            if cat.ext1_dim(k, l) == 0 and cat.ext1_dim(l, k) == 0:
                rigid[i] |= 1 << j
                rigid[j] |= 1 << i
    candidates = [entries[k] for k in found].__getitem__
    return [TiltingModuleRecord(forced, tuple(map(candidates, c))) for c in cliques(rigid, n)]


class BijectionReport(NamedTuple):
    left_count: int
    right_count: int
    matched: bool
    witnesses: list
    records: list  # the tilting-module records
    cluster_sets: list  # their images, sorted tuples of positions, sorted

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
    """Check that pi_bar carries the left-part tilting modules one-to-one
    onto the cluster-tilting sets of the fundamental domain.

    Both sides are the n-cliques of a compatibility graph, so it does
    whenever pi_bar maps the distinct free summands one-to-one onto the
    positions and the two Ext^1-vanishing relations agree on every pair of
    them (:func:`dupcat.cluster.ext1_mismatches`).  The cluster side is the
    image of each tilting module, a sorted tuple of positions, in sorted
    order: the order of a clique search on the domain."""
    records = enumerate_L_tilting(q)
    cat, table = knit_ind_dup(q), session(q).pi_bar_table
    # the records hold the catalog's entries: project each distinct one once
    index = {cat.entries[k]: k for k in left_part_catalog(q).non_proj_inj}
    found = sorted(index[m] for m in set().union(*(rec.free for rec in records)))
    size = len(fundamental_domain(q).names)
    if sorted(table[k] for k in found) != list(range(size)):
        witnesses = [
            f"pi_bar does not map the {len(found)} distinct free summands "
            f"one-to-one onto the {size} positions of the fundamental domain"
        ]
    else:
        witnesses = ext1_mismatches(q, found)
    position = {cat.entries[k]: table[k] for k in found}.__getitem__
    cluster_sets = sorted({tuple(sorted(map(position, rec.free))) for rec in records})
    matched = not witnesses and len(records) == len(cluster_sets)
    return BijectionReport(len(records), len(cluster_sets), matched, witnesses, records, cluster_sets)


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
    if prod.denominator != 1:
        raise CatalogError(f"degree product {prod} is not an integer")
    return int(prod)
