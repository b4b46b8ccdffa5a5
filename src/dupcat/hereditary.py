"""The module category of a hereditary path algebra.

Standard modules are built on explicit path bases: the projective at x has
the paths starting at x as a basis, the injective at x the paths ending at
x, and arrows act by composition (resp. by stripping the first arrow).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CatalogError
from .linalg import RMatrix
from .modcat import ARCatalog, ModuleCategory
from .quiver import Quiver, opposite, paths_from, paths_into
from .reps import Rep, RepMap
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
    """The simples, projectives and injectives that ``path_category(q)``
    keeps."""
    cat = path_category(q)
    return StandardReps(dict(cat.simple), dict(cat.proj), dict(cat.inj))


def path_category(q: Quiver) -> ModuleCategory:
    """The module category of the path algebra of q (its session's)."""
    return session(q).path_category


def build_path_category(q: Quiver) -> ModuleCategory:
    projectives = {}
    injectives = {}
    simples = {}
    for x in q.vertices:
        p = projective_rep(q, x)
        if p.dims[x] != 1:
            raise CatalogError(f"projective at {x} must be 1-dimensional at {x}")
        projectives[x] = (p, RMatrix.column([1]))
        i = injective_rep(q, x)
        if i.dims[x] != 1:
            raise CatalogError(f"injective at {x} must be 1-dimensional at {x}")
        injectives[x] = (i, RMatrix([[1]], 1, 1))
        simples[x] = simple_rep(q, x)

    def op_builder():
        op = path_category(opposite(q))
        vmap = {v: v for v in q.vertices}
        amap = {a.name: a.name for a in q.arrows}
        return op, vmap, amap

    return ModuleCategory(q, projectives, injectives, simples, op_builder)


# -- public operations -----------------------------------------------------


class _Flag:
    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


PROJECTIVE = _Flag("PROJECTIVE")
INJECTIVE = _Flag("INJECTIVE")


class TauPair:
    """tau and tau^{-1} of the module m of a category, each computed on first
    read: PROJECTIVE (resp. INJECTIVE) where it vanishes, otherwise the
    translate passed through ``wrap``."""

    def __init__(self, cat: ModuleCategory, m: Rep, wrap=lambda r: r):
        self._cat, self._m, self._wrap = cat, m, wrap

    @cached_property
    def tau(self):
        t = self._cat.tau(self._m)
        return PROJECTIVE if t is None else self._wrap(t)

    @cached_property
    def tau_inv(self):
        t = self._cat.tau_inv(self._m)
        return INJECTIVE if t is None else self._wrap(t)


def hom_dim(m: Rep, n: Rep) -> int:
    return path_category(m.quiver).hom_dim(m, n)


def ext1_dim(m: Rep, n: Rep) -> int:
    return path_category(m.quiver).ext1_dim(m, n)


def tau_pair(m: Rep) -> TauPair:
    return TauPair(path_category(m.quiver), m)


def nakayama(y: Rep) -> Rep:
    return path_category(y.quiver).nakayama(y)


def nakayama_map(f: RepMap) -> RepMap:
    return path_category(f.source.quiver).nakayama_map(f)


def knit_ind_A(q: Quiver, cap: int = 10000) -> ARCatalog:
    """The complete AR catalog of ind A for a representation-finite quiver.

    Raises CapExceededError past the cap, which diagnoses representation-
    infinite type.  The catalog is knitted once per quiver and shared (see
    ``ModuleCategory.knit``).
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
