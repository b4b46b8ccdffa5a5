"""Tilting modules over the duplicated algebra and the cluster bijection.

A tilting module here is classical: projective dimension at most one,
no self-extensions, and as many indecomposable summands as simples (2n).
Every projective-injective is forced to be a summand, so the search space
is the n-subsets of the non-projective-injective left-part members.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import CatalogError
from .quiver import Quiver
from .cluster import cliques, enumerate_cluster_tilting, fundamental_domain, pi_bar
from .dup import dup_category, knit_ind_dup, proj_primed
from .leftpart import left_part_catalog


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
    return [
        TiltingModuleRecord(forced, tuple(entries[found[i]] for i in c))
        for c in cliques(rigid, n)
    ]


class BijectionReport:
    def __init__(
        self, left_count: int, right_count: int, matched: bool, witnesses: list,
        records: Optional[list] = None, cluster_sets: Optional[list] = None
    ):
        self.left_count = left_count
        self.right_count = right_count
        self.matched = matched
        self.witnesses = witnesses
        # what was compared: the tilting-module records and the cluster side
        self.records = [] if records is None else records
        self.cluster_sets = [] if cluster_sets is None else cluster_sets

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
    image, as a set of sets, with the cluster-side enumeration.

    The sets compare as bit masks over the positions of the fundamental
    domain, so no object is hashed; a witness names a set by the first
    tuple of objects that gave its mask."""
    records = enumerate_L_tilting(q)
    cluster_side = enumerate_cluster_tilting(q)
    objects = fundamental_domain(q)
    position = {(o.kind, o.key): k for k, o in enumerate(objects)}

    def mask(positions) -> int:
        bits = 0
        for k in positions:
            bits |= 1 << k
        return bits

    cluster_sets = {}  # mask -> the first cluster-tilting set with it
    for s in cluster_side:
        cluster_sets.setdefault(mask(position[o.kind, o.key] for o in s), s)
    # records share their summands: project each distinct one once, onto its
    # position in the domain (an object outside it gets a position past it)
    projected = {}
    for m in dict.fromkeys(m for rec in records for m in rec.free):
        o = pi_bar(q, m)
        if (o.kind, o.key) not in position:
            position[o.kind, o.key] = len(objects)
            objects.append(o)
        projected[m] = position[o.kind, o.key]

    def image(rec) -> list:
        """The distinct objects rec's free summands project to, in order."""
        return [objects[k] for k in dict.fromkeys(projected[m] for m in rec.free)]

    witnesses = []
    images = {}  # mask -> the first record projecting to it
    for rec in records:
        img = mask(projected[m] for m in rec.free)
        if img.bit_count() != len(rec.free):
            witnesses.append(f"projection not injective on {rec.free}")
        if img in images:
            witnesses.append(f"two tilting modules project to {sorted(map(str, image(rec)))}")
        else:
            images[img] = rec
    for img, rec in images.items():
        if img not in cluster_sets:
            witnesses.append(f"projected set not cluster-tilting: {frozenset(image(rec))}")
    for extra, s in cluster_sets.items():
        if extra not in images:
            witnesses.append(f"cluster-tilting set not hit: {frozenset(s)}")
    matched = not witnesses and len(records) == len(cluster_sets)
    return BijectionReport(
        len(records), len(cluster_sets), matched, witnesses, records, cluster_side
    )


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
