"""The module category of a hereditary path algebra.

Standard modules are built on explicit path bases: the projective at x has
the paths starting at x as a basis and arrows act by composition; the
injective at x is the dual of the projective at x over the opposite quiver,
so its basis is dual to the paths ending at x.
Hom, Ext^1, the AR translates, the Nakayama functor and isomorphism are
methods of the category :func:`path_category` returns
(:class:`dupcat.modcat.ModuleCategory`).
"""

from __future__ import annotations

from operator import mul

from .linalg import RMatrix
from .modcat import DEFAULT_CAP, ARCatalog, ModuleCategory
from .quiver import Quiver, opposite, paths_from
from . import reps
from .reps import Rep
from .session import session


def simple_rep(q: Quiver, x: str) -> Rep:
    return Rep(q, {x: 1}, {})


def projective_rep(q: Quiver, x: str) -> Rep:
    table = paths_from(q, x)
    dims = {v: len(table[v]) for v in q.vertices}
    index = {v: {p: i for i, p in enumerate(table[v])} for v in q.vertices}
    mats = {}
    for a in q.arrows:
        u, v = a.source, a.target
        m = [[0] * dims[u] for _ in range(dims[v])]
        for j, p in enumerate(table[u]):
            m[index[v][p + (a.name,)]][j] = 1
        mats[a.name] = RMatrix(m, dims[v], dims[u])
    return Rep(q, dims, mats)


def injective_rep(q: Quiver, x: str) -> Rep:
    """D P_x over the opposite quiver, which keeps the vertex and arrow names."""
    return reps.dualize(projective_rep(opposite(q), x), q)


def path_category(q: Quiver) -> ModuleCategory:
    """The module category of the path algebra of q (its session's)."""
    return session(q).path_category


def build_path_category(q: Quiver) -> ModuleCategory:
    return ModuleCategory(
        q,
        {x: projective_rep(q, x) for x in q.vertices},
        {x: injective_rep(q, x) for x in q.vertices},
        {x: simple_rep(q, x) for x in q.vertices},
    )


def knit_ind_A(q: Quiver, cap: int = DEFAULT_CAP) -> ARCatalog:
    """The complete AR catalog of ind A for a representation-finite quiver.

    Raises CapExceededError past the cap, which diagnoses representation-
    infinite type.  The catalog is knitted once per quiver and shared (see
    ``ModuleCategory.knit``).
    """
    return path_category(q).knit(cap)


def euler_form(q: Quiver):
    """The Euler form of q as a function of two dimension vectors in vertex
    order: <x, y> = sum of x_v y_v over the vertices minus sum of x_s y_t
    over the arrows s -> t, which is dim Hom(M, N) - dim Ext^1(M, N) for
    modules M, N of the path algebra (Ringel, LNM 1099, 2.4).  The arrows'
    vertex positions are found once, here."""
    pos = {v: k for k, v in enumerate(q.vertices)}
    arrows = [(pos[a.source], pos[a.target]) for a in q.arrows]

    def form(x, y) -> int:
        return sum(map(mul, x, y)) - sum(x[s] * y[t] for s, t in arrows)

    return form
