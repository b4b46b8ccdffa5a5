"""The module category of the duplicated algebra.

A module over the duplicated algebra is a representation (a ``Rep``) of
the duplicated quiver: the base quiver, its primed copy, and one connecting
arrow x' -> y for every maximal path p from y to x.  Morphisms, covers,
syzygies, AR translates and knitting all run on it through the generic
engine of :mod:`dupcat.modcat`.  The duplicated quiver lists the base
vertices first, so the two halves of a module's dimension vector are its
dimension vectors on the two copies of the base quiver
(:func:`dim_vectors`).

:func:`embed_A` returns one module per A-module ``Rep``, kept by the
quiver's session (:mod:`dupcat.session`), so the facts the category keeps
for an embedded module (its presentation, tau and tau^{-1}) are shared by
every caller; so are the standard modules and the category.  Hom, Ext^1,
syzygies, AR translates, projective dimension and isomorphism are methods
of the category :func:`dup_category` returns.

Its AR quiver holds two copies of ind A: the A-modules on the unprimed
vertices, closed under predecessors, and the A'-modules on the primed
vertices, closed under successors.  Its knit takes tau^{-1} on both from
the knit of ind A (:func:`_copies`) and runs the Nakayama route only on the
entries injective in a copy and on those between the copies.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .errors import CatalogError
from .linalg import RMatrix, rank
from .modcat import ARCatalog, ModuleCategory
from .quiver import Quiver, paths_from, prime
from .hereditary import knit_ind_A, path_category
from .reps import Rep
from .session import session


def dim_vectors(m: Rep) -> tuple:
    """(dim X, dim Y): the dimension vectors of m on the base vertices and
    on the primed ones, the two halves of ``m.dim_vector()``."""
    d = m.dim_vector()
    return d[: len(d) // 2], d[len(d) // 2 :]


def _dual_path_matrix(bases, y_rep: Rep, mp) -> RMatrix:
    """Matrix of the action of the dual-path generator of ``mp`` on Y.

    Rows are indexed by ``bases[y]``, the chosen basis of Hom(Y, P_y) (the
    Nakayama bases of Y by vertex), columns by the Y-component at the end of
    the path; entry (i, j) is the coefficient of the path in the image of
    the j-th basis vector under the i-th hom.
    """
    q = y_rep.quiver
    y, x = mp.start, mp.end
    path_index = paths_from(q, y)[x].index(mp.arrows)
    rows = []
    for b in bases[y]:
        rows.append(list(b.mats[x].data[path_index]) if b.mats[x].rows else [0] * y_rep.dims[x])
    return RMatrix(rows, len(bases[y]), y_rep.dims[x])


# -- standard modules and the category ---------------------------------------


def _copy(x: Rep, dup: Quiver, rename) -> Rep:
    """The A-module x on one copy of the base quiver in the duplicated
    quiver (``rename`` gives a base vertex or arrow its name there, ``str``
    on the unprimed copy), zero elsewhere."""
    return Rep(
        dup,
        {rename(v): x.dims[v] for v in x.quiver.vertices},
        {rename(a.name): x.mats[a.name] for a in x.quiver.arrows},
    )


def embed_A(x: Rep) -> Rep:
    """The module (X, 0, 0): an A-module seen over the duplicated algebra.

    One module per Rep x, kept by the session, so every caller shares the
    facts kept for it; the standard modules of
    ``path_category`` map to the embedded ones of ``standard_dup_modules``.
    """
    s = session(x.quiver)
    if x.uid not in s.embedded:
        s.embedded[x.uid] = _copy(x, s.report.dup, str)
    return s.embedded[x.uid]


def proj_primed(q: Quiver, x: str) -> Rep:
    """The projective-injective at the primed vertex: (nu P_x, P_x, id)."""
    return standard_dup_modules(q).projective_primed[x]


def _projective_injective(p: Rep) -> Rep:
    """The module (nu P, P, id): nu P on the base arrows, P on the primed
    ones, and on the connecting arrow of each maximal path the action of
    its dual-path generator on P."""
    q = p.quiver
    report = session(q).report
    nu, bases = path_category(q).nak_data(p)
    dims = {**nu.dims, **{prime(v): p.dims[v] for v in q.vertices}}
    mats = {**nu.mats, **{prime(a.name): p.mats[a.name] for a in q.arrows}}
    for name, _, _, mp in report.connecting:
        mats[name] = _dual_path_matrix(bases, p, mp)
    return Rep(report.dup, dims, mats)


class StandardModules(NamedTuple):
    simple: dict
    simple_primed: dict
    projective: dict  # P at unprimed vertices = embedded projectives
    projective_primed: dict  # P at primed vertices, projective-injective
    injective_primed: dict
    embedded_injective: dict  # (I_x, 0, 0), not injective here


def standard_dup_modules(q: Quiver) -> StandardModules:
    """The standard modules its session keeps, built on the standard
    modules of ``path_category(q)``."""
    return session(q).standard_dup_modules


def build_standard_dup_modules(q: Quiver) -> StandardModules:
    cat = path_category(q)
    dup = session(q).report.dup
    return StandardModules(
        {x: embed_A(cat.simple[x]) for x in q.vertices},
        {x: _copy(cat.simple[x], dup, prime) for x in q.vertices},
        {x: embed_A(cat.proj[x]) for x in q.vertices},
        {x: _projective_injective(cat.proj[x]) for x in q.vertices},
        {x: _copy(cat.inj[x], dup, prime) for x in q.vertices},
        {x: embed_A(cat.inj[x]) for x in q.vertices},
    )


def _one_dim_at(m: Rep, v: str, what: str) -> Rep:
    if m.dims[v] != 1:
        raise CatalogError(f"{what} must be 1-dimensional at {v}, not {m.dims[v]}")
    return m


def dup_category(q: Quiver) -> ModuleCategory:
    """The module category of the duplicated algebra (its session's)."""
    return session(q).dup_category


def build_dup_category(q: Quiver) -> ModuleCategory:
    report = session(q).report
    std = standard_dup_modules(q)
    projectives = {}
    injectives = {}
    simples = {}
    for x in q.vertices:
        pbar = _one_dim_at(std.projective[x], x, f"projective at {x}")
        projectives[x] = (pbar, RMatrix.column([1]))
        ppr = _one_dim_at(std.projective_primed[x], prime(x), f"projective at {prime(x)}")
        projectives[prime(x)] = (ppr, RMatrix.column([1]))
        # the injective at the unprimed vertex is the projective-injective
        injectives[x] = (_one_dim_at(ppr, x, f"injective at {x}"), RMatrix([[1]], 1, 1))
        ipr = _one_dim_at(std.injective_primed[x], prime(x), f"injective at {prime(x)}")
        injectives[prime(x)] = (ipr, RMatrix([[1]], 1, 1))
        simples[x] = std.simple[x]
        simples[prime(x)] = std.simple_primed[x]

    return ModuleCategory(report.dup, projectives, injectives, simples, lambda cat, cap: _copies(q, cat, cap))


def _copies(q: Quiver, cat: ModuleCategory, cap) -> dict:
    """tau^{-1} on the two copies of ind A in mod of the duplicated algebra
    of q, by content id in ``cat``: for each entry M of ``knit_ind_A(q, cap)``
    that is not injective in A, the copy of M on the unprimed vertices maps
    to the copy of tau_A^{-1} M there, and the copy on the primed vertices
    to the primed copy.  mod A is closed under predecessors in mod of the
    duplicated algebra and mod A' under successors, so the almost split
    sequence of M in either copy is almost split there too (Assem-Simson-
    Skowronski vol. 1, IV.3)."""
    ar = knit_ind_A(q, cap)
    table = {}
    for rename in (str, prime):
        copies = [_copy(e, cat.quiver, rename) for e in ar.entries]
        for i, j in ar.tau_inv_of.items():
            table[cat.content_id(copies[i])] = copies[j]
    return table


# -- the knitted catalog -------------------------------------------------------


class DupCatalog:
    """ind of the duplicated algebra of ``base`` (its knitted ``catalog``),
    with per-entry flags read off the catalog and, for ``in_L`` and
    ``in_sigma``, off the left part (NotDynkinError off Dynkin type)."""

    def __init__(self, base: Quiver, catalog: ARCatalog):
        self.base = base
        self.catalog = catalog

    @cached_property
    def proj_injective(self) -> tuple:
        """Per entry, whether it is projective-injective."""
        return tuple(p and i for p, i in zip(self.catalog.projective, self.catalog.injective))

    @cached_property
    def in_ind_A(self) -> tuple:
        """Per entry, whether it is zero at the primed vertices (in ind A)."""
        return tuple(not any(dim_vectors(e)[1]) for e in self.entries)

    @cached_property
    def _member_of(self) -> tuple:
        """Per entry, the index of its left-part member, or None."""
        lpc = session(self.base).left_part
        return tuple(lpc.member_index(e) for e in self.entries)

    @cached_property
    def in_L(self) -> tuple:
        """Per entry, whether it lies in the left part."""
        return tuple(k is not None for k in self._member_of)

    @cached_property
    def in_sigma(self) -> tuple:
        """Per entry, whether it is Ext-injective in the left part."""
        sigma = set(session(self.base).left_part.sigma_indices)
        return tuple(k in sigma for k in self._member_of)

    @property
    def entries(self):
        return self.catalog.entries

    @cached_property
    def reach(self):
        """reach[i][j]: a chain of nonzero morphisms leads from entry i to j.

        The reflexive-transitive closure of {(i, j) : hom_table[i][j] > 0},
        read off the catalog's certified hom table with no Hom system (the
        diagonal of the table is 1).  The closure is needed because a
        composite of nonzero maps may vanish.
        """
        rows = [
            sum(1 << j for j, h in enumerate(row) if h)  # row i as a bit set of the j
            for row in self.catalog.hom_table
        ]
        _close(rows)
        n = len(rows)
        return [[bool(row >> j & 1) for j in range(n)] for row in rows]

    @cached_property
    def pd_table(self):
        """For every entry, whether its projective dimension is <= 1
        (``ModuleCategory.pd_at_most_one``)."""
        ctx = dup_category(self.base)
        return tuple(ctx.pd_at_most_one(e) for e in self.entries)

    def ext1_dim(self, i: int, j: int) -> int:
        """dim Ext^1(entry i, entry j) by the AR formula from the hom table
        (``ARCatalog.ext1_by_tau``); CatalogError, with the exact projective
        dimension, when ``pd_table`` says entry i has pd > 1, where the
        formula needs the maps through injectives."""
        if not self.pd_table[i]:
            pd = dup_category(self.base).pd(self.entries[i])
            raise CatalogError(f"Ext^1 from entry {i}: its projective dimension is {pd}, not <= 1")
        return self.catalog.ext1_by_tau(i, j)

    def indices(self, modules) -> list:
        """The entry index of each of the indecomposable ``modules``;
        CatalogError naming the first one the catalog lacks."""
        found = [self.catalog.find(m) for m in modules]
        if None in found:
            missing = dim_vectors(modules[found.index(None)])
            raise CatalogError(f"module {missing} is missing from the catalog")
        return found


def _close(rows) -> None:
    """Transitive closure, in place, of a relation given as bit-set rows."""
    for k in range(len(rows)):
        bit, row_k = 1 << k, rows[k]
        for i, row_i in enumerate(rows):
            if row_i & bit:
                rows[i] = row_i | row_k


def knit_ind_dup(q: Quiver, cap: int = 10000) -> DupCatalog:
    """The catalog of ind of the duplicated algebra, one per quiver (its
    session's), so its reachability, projective dimensions and hom table
    are built once.  Cap-guarded like ``ModuleCategory.knit``: a call with
    a cap below the entry count raises CapExceededError, also after the
    first knit."""
    dup_category(q).knit(cap)
    return session(q).dup_catalog


def build_dup_catalog(q: Quiver) -> DupCatalog:
    # knit_ind_dup has knitted under its cap; this reads the kept knit
    ar = dup_category(q).knit(math.inf)
    return DupCatalog(q, ar)


# -- junction diagnostics -------------------------------------------------------


class JunctionPattern(NamedTuple):
    zero_count: int
    commuting_count: int
    family_sizes: tuple


def junction_composite_pattern(q: Quiver) -> JunctionPattern:
    """Zero/commutativity pattern of length-two composites through the junction.

    Composites with equal endpoints are grouped; a family is a maximal set of
    pairwise proportional nonzero composites, and composites in families of
    size at least two count as identified ("commuting").
    """
    report = session(q).report
    cat = dup_category(q)
    dq = report.dup
    composites = []  # (endpoints, path names, start)
    for name, src, tgt, _ in report.connecting:
        for a in q.arrows_from[tgt]:
            composites.append(((src, a.target), (name, a.name), src))
        for b in dq.arrows_into[src]:
            composites.append(((b.source, tgt), (b.name, name), b.source))
    vectors = []
    for endpoints, names, start in composites:
        blocks = []
        for z in dq.vertices:
            blocks.extend(cat.proj[z].act_path(names, start).flatten())
        vectors.append((endpoints, tuple(blocks)))
    zero_count = sum(1 for _, v in vectors if all(x == 0 for x in v))
    groups: dict = {}
    for endpoints, v in vectors:
        if all(x == 0 for x in v):
            continue
        groups.setdefault(endpoints, []).append(v)
    family_sizes = []
    commuting = 0
    for endpoints, vecs in groups.items():
        remaining = list(vecs)
        while remaining:
            head = remaining.pop(0)
            family = [head]
            rest = []
            for v in remaining:
                two = RMatrix([list(head), list(v)], 2, len(head))
                if rank(two) <= 1:
                    family.append(v)
                else:
                    rest.append(v)
            remaining = rest
            if len(family) >= 2:
                family_sizes.append(len(family))
                commuting += len(family)
    family_sizes.sort(reverse=True)
    return JunctionPattern(zero_count, commuting, tuple(family_sizes))
