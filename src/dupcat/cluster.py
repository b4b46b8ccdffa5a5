"""The cluster category on fundamental-domain representatives.

Objects are the indecomposables of the base category together with one
shifted projective per vertex.  Morphism and extension dimensions between
representatives reduce to base-category Hom/Ext data: only finitely many
orbit indices contribute for a hereditary algebra, and the surviving terms
are tabulated in closed form here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import NotDynkinError, NotInDomainError
from .quiver import Quiver, classify_dynkin
from .dup import DupModule, embed_A, is_isomorphic_dup, proj_primed, tau_dup_pair
from .hereditary import injective_rep, knit_ind_A, path_category
from .reps import Rep


@dataclass(frozen=True)
class ClusterObject:
    """Module(index into ind A) or ShiftedProjective(vertex)."""

    quiver: Quiver
    kind: str  # "module" | "shift"
    key: Union[int, str]


def module_object(q: Quiver, index: int) -> ClusterObject:
    return ClusterObject(q, "module", index)


def shifted_projective(q: Quiver, vertex: str) -> ClusterObject:
    return ClusterObject(q, "shift", vertex)


class _Context:
    def __init__(self, q: Quiver):
        self.q = q
        self.cat_a = knit_ind_A(q)
        self.cosyzygy = {
            x: tau_dup_pair(embed_A(injective_rep(q, x))).tau_inv
            for x in q.vertices
        }
        self.proj_inj = {x: proj_primed(q, x) for x in q.vertices}

    def objects(self):
        modules = sorted(
            range(len(self.cat_a.entries)),
            key=lambda i: (
                self.cat_a.entries[i].total_dim(),
                self.cat_a.entries[i].dim_vector(),
            ),
        )
        out = [module_object(self.q, i) for i in modules]
        out += [shifted_projective(self.q, x) for x in self.q.vertices]
        return out


_ctx_cache: dict = {}


def _ctx(q: Quiver) -> _Context:
    if q not in _ctx_cache:
        _ctx_cache[q] = _Context(q)
    return _ctx_cache[q]


def fundamental_domain(q: Quiver):
    """All cluster objects: ind A plus one shifted projective per vertex."""
    return _ctx(q).objects()


def describe_object(o: ClusterObject) -> str:
    """Name an object by its dimension vector, or by the P[x][1] tag."""
    if o.kind == "shift":
        return f"P[{o.key}][1]"
    entry = _ctx(o.quiver).cat_a.entries[o.key]
    return "M" + "".join(str(d) for d in entry.dim_vector())


def pi_bar(m: DupModule) -> ClusterObject:
    """Stable projection of a non-projective-injective left-part module.

    Embedded modules go to themselves; the cosyzygy of the projective at x
    (equivalently tau^{-1} of the injective at x) goes to the shifted
    projective at x.  Everything else is outside the domain.
    """
    q = m.base_quiver
    ctx = _ctx(q)
    for x in q.vertices:
        if is_isomorphic_dup(m, ctx.proj_inj[x]):
            raise NotInDomainError("projective-injectives vanish under projection")
    if m.y_part.is_zero():
        idx = ctx.cat_a.find(m.x_part)
        if idx is None:
            raise NotInDomainError("not an indecomposable of the base category")
        return module_object(q, idx)
    for x in q.vertices:
        if is_isomorphic_dup(m, ctx.cosyzygy[x]):
            return shifted_projective(q, x)
    raise NotInDomainError("module is not in the left part")


def ext1_cluster_dim(o1: ClusterObject, o2: ClusterObject) -> int:
    """Extension dimension between fundamental-domain representatives.

    module/module: both-direction base Ext; shift(x)/module(M): the dimension
    of M at x; shift/shift: zero.
    """
    assert o1.quiver == o2.quiver
    ctx = _ctx(o1.quiver)
    cat = path_category(o1.quiver)
    if o1.kind == "module" and o2.kind == "module":
        m, n = ctx.cat_a.entries[o1.key], ctx.cat_a.entries[o2.key]
        return cat.ext1_dim(m, n) + cat.ext1_dim(n, m)
    if o1.kind == "shift" and o2.kind == "shift":
        return 0
    shift, mod = (o1, o2) if o1.kind == "shift" else (o2, o1)
    return ctx.cat_a.entries[mod.key].dims[shift.key]


def hom_cluster_dim_modules(m: Rep, n: Rep) -> int:
    """Morphism dimension between two module representatives: base Hom plus
    the extension term from the inverse orbit shift (absent for projectives)."""
    cat = path_category(m.quiver)
    total = cat.hom_dim(m, n)
    t = cat.tau(m)
    if t is not None:
        total += cat.ext1_dim(t, n)
    return total


def enumerate_cluster_tilting(q: Quiver):
    """All maximal rigid collections of fundamental-domain objects.

    Returns a deterministically ordered list of n-element tuples.
    """
    if classify_dynkin(q) is None:
        raise NotDynkinError("cluster-tilting enumeration requires Dynkin type")
    ctx = _ctx(q)
    objects = ctx.objects()
    n = len(q.vertices)
    count = len(objects)
    for i, o in enumerate(objects):
        assert ext1_cluster_dim(o, o) == 0, "fundamental-domain object not rigid"
    compat = [[False] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            ok = ext1_cluster_dim(objects[i], objects[j]) == 0
            compat[i][j] = compat[j][i] = ok
    results = []

    def backtrack(start, chosen):
        if len(chosen) == n:
            results.append(tuple(objects[i] for i in chosen))
            return
        for i in range(start, count):
            if count - i < n - len(chosen):
                break
            if all(compat[i][j] for j in chosen):
                backtrack(i + 1, chosen + [i])

    backtrack(0, [])
    return results


def is_maximal_rigid(q: Quiver, objs) -> bool:
    """No further fundamental-domain object is compatible with ``objs``."""
    chosen = set(objs)
    for o in _ctx(q).objects():
        if o in chosen:
            continue
        if all(
            ext1_cluster_dim(o, c) == 0 for c in objs
        ) and ext1_cluster_dim(o, o) == 0:
            return False
    return True
