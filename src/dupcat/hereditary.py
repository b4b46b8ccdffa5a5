"""The module category of a hereditary path algebra.

Standard modules are built on explicit path bases: the projective at x has
the paths starting at x as a basis, the injective at x the paths ending at
x, and arrows act by composition (resp. by stripping the first arrow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .linalg import RMatrix
from .modcat import ARCatalog, ModuleCategory
from .quiver import Quiver, opposite, paths_from, paths_into
from . import reps
from .reps import Rep, RepMap


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
    table = paths_into(q, x)
    dims = {v: len(table[v]) for v in q.vertices}
    index = {v: {p: i for i, p in enumerate(table[v])} for v in q.vertices}
    mats = {}
    for a in q.arrows:
        u, v = a.source, a.target
        m = [[0] * dims[u] for _ in range(dims[v])]
        for j, p in enumerate(table[u]):
            if p and p[0] == a.name:
                m[index[v][p[1:]]][j] = 1
        mats[a.name] = RMatrix(m, dims[v], dims[u])
    return Rep(q, dims, mats)


@dataclass
class StandardReps:
    simple: dict
    projective: dict
    injective: dict


def standard_reps(q: Quiver) -> StandardReps:
    return StandardReps(
        {x: simple_rep(q, x) for x in q.vertices},
        {x: projective_rep(q, x) for x in q.vertices},
        {x: injective_rep(q, x) for x in q.vertices},
    )


_plain_cache: dict = {}


def path_category(q: Quiver) -> ModuleCategory:
    """The module category of the path algebra of q (cached per quiver)."""
    if q in _plain_cache:
        return _plain_cache[q]
    projectives = {}
    injectives = {}
    simples = {}
    for x in q.vertices:
        p = projective_rep(q, x)
        assert p.dims[x] == 1, "acyclic quiver must have a 1-dim top at x"
        projectives[x] = (p, RMatrix.column([1]))
        i = injective_rep(q, x)
        assert i.dims[x] == 1
        injectives[x] = (i, RMatrix([[1]], 1, 1))
        simples[x] = simple_rep(q, x)

    def op_builder():
        op = path_category(opposite(q))
        vmap = {v: v for v in q.vertices}
        amap = {a.name: a.name for a in q.arrows}
        return op, vmap, amap

    cat = ModuleCategory(q, projectives, injectives, simples, op_builder)
    _plain_cache[q] = cat
    return cat


# -- public operations -----------------------------------------------------


class _Flag:
    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


PROJECTIVE = _Flag("PROJECTIVE")
INJECTIVE = _Flag("INJECTIVE")


@dataclass
class TauPair:
    tau: Union[Rep, _Flag]
    tau_inv: Union[Rep, _Flag]


def hom_basis(m: Rep, n: Rep):
    return list(path_category(m.quiver).hom(m, n))


def hom_dim(m: Rep, n: Rep) -> int:
    return len(hom_basis(m, n))


def ext1_dim(m: Rep, n: Rep) -> int:
    return path_category(m.quiver).ext1_dim(m, n)


def tau_pair(m: Rep) -> TauPair:
    cat = path_category(m.quiver)
    t = cat.tau(m)
    ti = cat.tau_inv(m)
    return TauPair(PROJECTIVE if t is None else t, INJECTIVE if ti is None else ti)


def nakayama(y: Rep) -> Rep:
    return path_category(y.quiver).nakayama(y)


def nakayama_map(f: RepMap) -> RepMap:
    return path_category(f.source.quiver).nakayama_map(f)


def is_isomorphic(m: Rep, n: Rep) -> bool:
    return reps.is_isomorphic(m, n)


def knit_ind_A(q: Quiver, cap: int = 10000) -> ARCatalog:
    """The complete AR catalog of ind A for a representation-finite quiver.

    Raises CapExceededError past the cap, which diagnoses representation-
    infinite type.
    """
    return path_category(q).knit(cap)


def positive_root_count(dynkin) -> int:
    """Number of positive roots, i.e. |ind A|, per Dynkin family."""
    fam, n = dynkin.family, dynkin.rank
    if fam == "A":
        return n * (n + 1) // 2
    if fam == "D":
        return n * (n - 1)
    if fam == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    raise ValueError(f"unknown family {fam}")
