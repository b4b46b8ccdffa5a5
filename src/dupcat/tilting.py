"""Tilting modules over the duplicated algebra and the cluster bijection.

A tilting module here is classical: projective dimension at most one,
no self-extensions, and as many indecomposable summands as simples (2n).
Every projective-injective is forced to be a summand, so the search space
is the n-subsets of the non-projective-injective left-part members.  A
tilting module is a tuple of entry indices of the knitted catalog of the
duplicated algebra (:func:`dupcat.dup.knit_ind_dup`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import CatalogError
from .quiver import Quiver
from .cluster import cliques, ext1_mismatches, fundamental_domain
from .dup import dup_category, knit_ind_dup
from .leftpart import left_part_catalog, primed_projective_entry
from .session import session


class TiltingVerdict(NamedTuple):
    passed: bool
    failures: list

    def __bool__(self):
        return self.passed


def is_tilting_module(q: Quiver, summands) -> TiltingVerdict:
    """Check the tilting axioms for entry indices of the knitted catalog of
    the duplicated algebra of q (:func:`knit_ind_dup`); a repeated index
    fails, since a tilting module here is basic.

    The catalog's ``pd_table`` says which summands have projective
    dimension <= 1 (the exact one is computed only for a failure) and its
    ``ext1_dim`` gives Ext^1 off the hom table.  Ext^1 is checked from the
    summands of projective dimension <= 1 only: each other one has already
    failed the first axiom.  The P_x' are the entries
    :func:`primed_projective_entry` names."""
    failures = []
    if not summands:
        return TiltingVerdict(False, ["empty summand list"])
    cat = knit_ind_dup(q)
    n2 = 2 * len(q.vertices)
    if len(summands) != n2:
        failures.append(f"expected {n2} summands, got {len(summands)}")
    if len(set(summands)) != len(summands):
        failures.append("a summand is repeated")
    for i, k in enumerate(summands):
        if not cat.pd_table[k]:
            failures.append(f"summand {i} has projective dimension {dup_category(q).pd(cat.entries[k])}")
    for i, k in enumerate(summands):
        if not cat.pd_table[k]:
            continue
        for j, l in enumerate(summands):
            if cat.ext1_dim(k, l) != 0:
                failures.append(f"Ext^1(summand {i}, summand {j}) is nonzero")
    for x in q.vertices:
        if primed_projective_entry(q, x) not in summands:
            failures.append(f"projective-injective at {x}' is not a summand")
    return TiltingVerdict(not failures, failures)


def enumerate_L_tilting(q: Quiver) -> list:
    """The free part of every tilting module whose non-projective-injective
    summands lie in the left part, as a tuple of entry indices of the
    knitted catalog of the duplicated algebra: every rigid n-subset of the
    candidates.  The rest of each module is forced: the n
    projective-injectives P_x' (:func:`primed_projective_entry`).

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
    return [tuple(map(found.__getitem__, c)) for c in cliques(rigid, n)]


class BijectionReport(NamedTuple):
    left_count: int
    right_count: int
    matched: bool
    witnesses: list
    free_parts: list  # the free part of each tilting module (enumerate_L_tilting)
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
    free_parts = enumerate_L_tilting(q)
    table = session(q).pi_bar_table
    found = sorted(set().union(*free_parts))
    size = len(fundamental_domain(q).names)
    if sorted(table[k] for k in found) != list(range(size)):
        witnesses = [
            f"pi_bar does not map the {len(found)} distinct free summands "
            f"one-to-one onto the {size} positions of the fundamental domain"
        ]
    else:
        witnesses = ext1_mismatches(q, found)
    cluster_sets = sorted({tuple(sorted(map(table.__getitem__, free))) for free in free_parts})
    matched = not witnesses and len(free_parts) == len(cluster_sets)
    return BijectionReport(len(free_parts), len(cluster_sets), matched, witnesses, free_parts, cluster_sets)


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
