"""The cluster category on the positions of its fundamental domain.

The fundamental domain holds the indecomposables of the base category,
by (total dimension, dimension vector), then one shifted projective P_x[1]
per vertex x, in vertex order; an object is its position there.  Extension
dimensions between positions reduce to base-category Hom/Ext data: only
finitely many orbit indices contribute for a hereditary algebra, and the
surviving terms are tabulated in closed form here, once per session
(:class:`Domain`).  The stable projection pi_bar of the left part of the
duplicated algebra is a table from its entry indices to positions.
"""

from __future__ import annotations

from functools import cached_property

from .dup import dim_vectors, knit_ind_dup
from .errors import NotInDomainError
from .quiver import Quiver
from .hereditary import knit_ind_A
from .reps import Rep
from .session import session


class Domain:
    """The fundamental domain of one quiver, as positions."""

    def __init__(self, names: tuple, ext1: tuple, of_ind_a: tuple):
        self.names = names  # per position: "M" + its dimension vector, or "P[x][1]"
        self.ext1 = ext1  # ext1[i][j] = dim Ext^1_C(position i, position j)
        self.of_ind_a = of_ind_a  # the position of each entry of ind A, in ind A order

    @cached_property
    def compat(self) -> tuple:
        """Per position i, the bit mask of the positions j with Ext^1_C zero
        between i and j both ways (i itself when it is rigid)."""
        cols = list(zip(*self.ext1))
        return tuple(
            sum(1 << j for j, (a, b) in enumerate(zip(row, col)) if a == b == 0)
            for row, col in zip(self.ext1, cols)
        )


def fundamental_domain(q: Quiver) -> Domain:
    """The session's fundamental domain of the cluster category of q."""
    return session(q).fundamental_domain


def build_fundamental_domain(q: Quiver) -> Domain:
    """The positions with their names and the Ext^1_C table, read off the
    hom table of ind A (A is hereditary, so every module has projective
    dimension <= 1): between modules, the base Ext^1 both ways by the AR
    formula; between a module M and P_x[1], the dimension of M at x;
    between shifted projectives, zero."""
    cat = knit_ind_A(q)
    entries = cat.entries
    modules = sorted(
        range(len(entries)),
        key=lambda i: (entries[i].total_dim(), entries[i].dim_vector()),
    )
    dims = [entries[i].dim_vector() for i in modules]  # in vertex order
    n = len(q.vertices)
    ext1 = [
        tuple([cat.ext1_by_tau(a, b) + cat.ext1_by_tau(b, a) for b in modules] + list(d))
        for a, d in zip(modules, dims)
    ]
    ext1 += [tuple([d[x] for d in dims] + [0] * n) for x in range(n)]
    return Domain(
        tuple(["M" + "".join(map(str, d)) for d in dims] + [f"P[{x}][1]" for x in q.vertices]),
        tuple(ext1),
        tuple(sorted(range(len(modules)), key=modules.__getitem__)),  # the inverse permutation
    )


def build_pi_bar_table(q: Quiver) -> dict:
    """pi_bar on the left part (:class:`dupcat.leftpart.LeftPart`): the
    embedding of entry i of ind A goes to the position of entry i; the
    cosyzygy of the projective at the k-th vertex (tau^{-1} of the injective
    there) goes to P_x[1], the k-th position past ind A."""
    s = session(q)
    lp, domain = s.left_part, s.fundamental_domain
    table = dict(zip(lp.ind_a, domain.of_ind_a))
    table.update((k, len(lp.ind_a) + x) for x, k in enumerate(lp.cosyzygies))
    return table


def pi_bar(q: Quiver, m: Rep) -> int:
    """Stable projection of a non-projective-injective left-part module of
    the duplicated algebra of q: its position in the fundamental domain.

    One lookup in the knitted catalog of the duplicated algebra finds its
    entry index, and the session's table projects it.  Projective-
    injectives and non-members are outside the domain.
    """
    s = session(q)
    lp = s.left_part
    k = s.dup_catalog.catalog.find(m)
    if k in lp.proj_inj:
        raise NotInDomainError("projective-injectives vanish under projection")
    if k not in s.pi_bar_table:
        raise NotInDomainError("module is not in the left part")
    return s.pi_bar_table[k]


def ext1_mismatches(q: Quiver, members) -> list:
    """A witness for each ordered pair of ``members``, left-part entries of
    the knit of the duplicated algebra (:func:`knit_ind_dup`) in the pi_bar
    table, where Ext^1 vanishing both ways in the knit
    (``DupCatalog.ext1_dim``) disagrees with Ext^1_C vanishing both ways at
    their positions (``Domain.compat``)."""
    cat = knit_ind_dup(q)
    s = session(q)
    compat, table = s.fundamental_domain.compat, s.pi_bar_table
    positions = [table[k] for k in members]
    witnesses = []
    for k, p in zip(members, positions):
        for l, r in zip(members, positions):
            if (compat[p] >> r & 1) != (cat.ext1_dim(k, l) == 0 == cat.ext1_dim(l, k)):
                witnesses.append(
                    f"cross-model mismatch at {dim_vectors(cat.entries[k])} / {dim_vectors(cat.entries[l])}"
                )
    return witnesses


def cliques(compat, size: int) -> list:
    """Every ``size``-set of pairwise compatible indices, as ascending
    tuples in lexicographic order.

    ``compat[i]`` is the int bit mask of the indices compatible with i
    (bit i itself is never read).  The search keeps as one mask the
    candidates past the last chosen index that are compatible with every
    chosen one, takes its lowest bit first, and enters a branch only when
    it has as many candidates as places to fill.
    """
    out = []

    def extend(chosen, cand, need):
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            if need == 1:
                out.append((*chosen, i))
                continue
            nxt = cand & compat[i]
            if nxt.bit_count() >= need - 1:
                extend((*chosen, i), nxt, need - 1)

    if size:
        extend((), (1 << len(compat)) - 1, size)
    else:
        out.append(())
    return out
