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
from .hereditary import knit_ind_A
from .reps import Rep
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


def pi_bar(q: Quiver, m: Rep) -> ClusterObject:
    """Stable projection of a non-projective-injective left-part module of
    the duplicated algebra of q.

    One lookup in the knitted catalog of the duplicated algebra decides it,
    by the entry index it finds (:class:`dupcat.leftpart.LeftPart`): the
    embedding of entry i of ind A goes to module i; the cosyzygy of the
    projective at x (equivalently tau^{-1} of the injective at x) goes to
    the shifted projective at x.  Projective-injectives and non-members are
    outside the domain.
    """
    s = session(q)
    lp = s.left_part  # knits the duplicated algebra under the default cap
    k = s.dup_catalog.catalog.find(m)
    if k in lp.proj_inj:
        raise NotInDomainError("projective-injectives vanish under projection")
    if k in lp.ind_a:
        return module_object(q, lp.ind_a.index(k))
    if k in lp.cosyzygies:
        return shifted_projective(q, q.vertices[lp.cosyzygies.index(k)])
    raise NotInDomainError("module is not in the left part")


def ext1_in_catalog(cat, o1: ClusterObject, o2: ClusterObject) -> int:
    """Extension dimension between fundamental-domain representatives over
    the quiver of ``cat``, the catalog of ind A (read once per pass).

    module/module: both-direction base Ext, read off the hom table of ind A
    by the AR formula (A is hereditary, so every module has projective
    dimension <= 1); shift(x)/module(M): the dimension of M at x;
    shift/shift: zero.
    """
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
    cat = knit_ind_A(q)
    n = len(q.vertices)
    count = len(objects)
    for i, o in enumerate(objects):
        if ext1_in_catalog(cat, o, o) != 0:
            raise CatalogError("fundamental-domain object not rigid")
    compat = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            if ext1_in_catalog(cat, objects[i], objects[j]) == 0:
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
