"""The cluster category on fundamental-domain representatives.

Objects are the indecomposables of the base category together with one
shifted projective per vertex.  Morphism and extension dimensions between
representatives reduce to base-category Hom/Ext data: only finitely many
orbit indices contribute for a hereditary algebra, and the surviving terms
are tabulated in closed form here.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .errors import CatalogError, NotDynkinError, NotInDomainError
from .quiver import Quiver, classify_dynkin
from .dup import DupModule
from .hereditary import knit_ind_A
from .leftpart import left_part_catalog
from .session import session


class ClusterObject(NamedTuple):
    """Module(index into ind A) or ShiftedProjective(vertex)."""

    quiver: Quiver
    kind: str  # "module" | "shift"
    key: Union[int, str]


def module_object(q: Quiver, index: int) -> ClusterObject:
    return ClusterObject(q, "module", index)


def shifted_projective(q: Quiver, vertex: str) -> ClusterObject:
    return ClusterObject(q, "shift", vertex)


def fundamental_domain(q: Quiver):
    """All cluster objects: ind A plus one shifted projective per vertex."""
    return list(session(q).fundamental_domain)


def build_fundamental_domain(q: Quiver) -> tuple:
    entries = knit_ind_A(q).entries
    modules = sorted(
        range(len(entries)),
        key=lambda i: (entries[i].total_dim(), entries[i].dim_vector()),
    )
    return tuple(
        [module_object(q, i) for i in modules]
        + [shifted_projective(q, x) for x in q.vertices]
    )


def describe_object(o: ClusterObject) -> str:
    """Name an object by its dimension vector, or by the P[x][1] tag."""
    if o.kind == "shift":
        return f"P[{o.key}][1]"
    entry = knit_ind_A(o.quiver).entries[o.key]
    return "M" + "".join(str(d) for d in entry.dim_vector())


def pi_bar(m: DupModule) -> ClusterObject:
    """Stable projection of a non-projective-injective left-part module.

    One lookup among the left-part members decides it: ind A member i (the
    members list ind A first, in catalog order) goes to itself; the
    cosyzygy of the projective at x (equivalently tau^{-1} of the injective
    at x) goes to the shifted projective at x.  Projective-injectives and
    non-members are outside the domain.
    """
    q = m.base_quiver
    lpc = left_part_catalog(q)
    i = lpc.member_index(m)
    if i is None:
        raise NotInDomainError("module is not in the left part")
    if lpc.proj_inj_flags[i]:
        raise NotInDomainError("projective-injectives vanish under projection")
    if lpc.ind_a_flags[i]:
        return module_object(q, i)
    return shifted_projective(q, next(x for x, k in lpc.cosyzygy_by_vertex.items() if k == i))


def ext1_cluster_dim(o1: ClusterObject, o2: ClusterObject) -> int:
    """Extension dimension between fundamental-domain representatives.

    module/module: both-direction base Ext, read off the hom table of ind A
    by the AR formula (A is hereditary, so every module has projective
    dimension <= 1); shift(x)/module(M): the dimension of M at x;
    shift/shift: zero.
    """
    if o1.quiver != o2.quiver:
        raise CatalogError("cluster objects over different quivers")
    cat = knit_ind_A(o1.quiver)
    if o1.kind == "module" and o2.kind == "module":
        return cat.ext1_by_tau(o1.key, o2.key) + cat.ext1_by_tau(o2.key, o1.key)
    if o1.kind == "shift" and o2.kind == "shift":
        return 0
    shift, mod = (o1, o2) if o1.kind == "shift" else (o2, o1)
    return cat.entries[mod.key].dims[shift.key]


def enumerate_cluster_tilting(q: Quiver):
    """All maximal rigid collections of fundamental-domain objects.

    Returns a deterministically ordered list of n-element tuples.
    """
    if classify_dynkin(q) is None:
        raise NotDynkinError("cluster-tilting enumeration requires Dynkin type")
    objects = fundamental_domain(q)
    n = len(q.vertices)
    count = len(objects)
    for i, o in enumerate(objects):
        if ext1_cluster_dim(o, o) != 0:
            raise CatalogError("fundamental-domain object not rigid")
    compat = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if ext1_cluster_dim(objects[i], objects[j]) == 0:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return [tuple(objects[i] for i in c) for c in cliques(compat, n)]


def cliques(compat, size: int) -> list:
    """Every ``size``-set of pairwise compatible indices, as ascending
    tuples in lexicographic order.

    ``compat[i]`` is the int bit mask of the indices compatible with i.  The
    search keeps as one mask the candidates past the last chosen index that
    are compatible with every chosen one, takes its lowest bit first, and
    stops a branch once fewer candidates are left than places to fill.
    """
    out = []

    def extend(chosen, cand):
        need = size - len(chosen)
        if not need:
            out.append(tuple(chosen))
            return
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            extend(chosen + [i], cand & compat[i])

    extend([], (1 << len(compat)) - 1)
    return out
