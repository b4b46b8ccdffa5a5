"""The module category of the duplicated algebra.

A module over the duplicated algebra is a representation of the duplicated
quiver: the base quiver, its primed copy, and one connecting arrow x' -> y
for every maximal path p from y to x.  :class:`DupModule` holds exactly that
representation, and morphisms, covers, syzygies, AR translates and knitting
all run on it through the generic engine of :mod:`dupcat.modcat`.

The triple (X, Y, theta: nu(Y) -> X) is derived from the representation on
demand: X and Y are its restrictions to the two copies of the base quiver,
nu is the Nakayama functor of the base category, and theta is the unique map
whose composite with the dual-path generator of p is the action of the
connecting arrow of p.  :func:`triple_to_rep` goes the other way; it builds
the standard modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import CatalogError
from .linalg import RMatrix, nullspace_basis, solve_matrix
from .modcat import ARCatalog, ModuleCategory
from .quiver import Quiver, duplicated_quiver, opposite, paths_from, prime
from . import reps
from .hereditary import (
    INJECTIVE,
    PROJECTIVE,
    TauPair,
    injective_rep,
    path_category,
    projective_rep,
    simple_rep,
)
from .reps import Rep, RepMap


_report_cache: dict = {}


def dup_quiver_report(q: Quiver):
    if q not in _report_cache:
        _report_cache[q] = duplicated_quiver(q)
    return _report_cache[q]


def _unprimed(name: str) -> str:
    return name


def _restrict(rep: Rep, base: Quiver, rename) -> Rep:
    """Restriction of a duplicated-quiver representation to one copy of the
    base quiver; ``rename`` gives a base vertex or arrow its name there."""
    return Rep(
        base,
        {v: rep.dims[rename(v)] for v in base.vertices},
        {a.name: rep.mats[rename(a.name)] for a in base.arrows},
    )


class DupModule:
    """A module over the duplicated algebra of ``base_quiver``: one
    representation of the duplicated quiver.

    ``x_part``, ``y_part`` and ``theta`` are read-only views on it, derived
    on first read and kept.
    """

    def __init__(self, rep: Rep, base: Quiver, triple=None):
        self._rep = rep
        self.base_quiver = base
        self._x, self._y, self._theta = triple or (None, None, None)

    def rep(self) -> Rep:
        return self._rep

    @property
    def x_part(self) -> Rep:
        """X: the restriction to the base quiver."""
        if self._x is None:
            self._x = _restrict(self._rep, self.base_quiver, _unprimed)
        return self._x

    @property
    def y_part(self) -> Rep:
        """Y: the restriction to the primed copy, over the base quiver."""
        if self._y is None:
            self._y = _restrict(self._rep, self.base_quiver, prime)
        return self._y

    @property
    def theta(self) -> RepMap:
        """theta: nu(Y) -> X, the unique solution of the joint linear system
        given by its naturality squares and by matching the connecting-arrow
        actions.  Raises CatalogError when the system has no solution or more
        than one, i.e. when the representation is not a module."""
        if self._theta is not None:
            return self._theta
        base = self.base_quiver
        x, y = self.x_part, self.y_part
        base_cat = path_category(base)
        nu = base_cat.nakayama(y)
        offsets = {}
        total = 0
        for v in base.vertices:
            offsets[v] = total
            total += x.dims[v] * nu.dims[v]

        def var(v, i, j):
            return offsets[v] + i * nu.dims[v] + j

        rows, rhs = [], []
        for a in base.arrows:
            yv, xv = a.source, a.target
            na, xa = nu.mats[a.name], x.mats[a.name]
            for i in range(x.dims[xv]):
                for j in range(nu.dims[yv]):
                    row = [0] * total
                    for k in range(nu.dims[xv]):
                        row[var(xv, i, k)] += na.data[k][j]
                    for k in range(x.dims[yv]):
                        row[var(yv, k, j)] -= xa.data[i][k]
                    rows.append(row)
                    rhs.append(0)
        for name, _, tgt, mp in dup_quiver_report(base).connecting:
            b = _dual_path_matrix(base_cat, y, mp)
            c = self._rep.mats[name]
            for i in range(x.dims[tgt]):
                for j in range(y.dims[mp.end]):
                    row = [0] * total
                    for k in range(nu.dims[tgt]):
                        row[var(tgt, i, k)] += b.data[k][j]
                    rows.append(row)
                    rhs.append(c.data[i][j])
        system = RMatrix(rows, len(rows), total)
        sol = solve_matrix(system, RMatrix.column(rhs))
        if sol is None:
            raise CatalogError("no compatible dual-bimodule action: not a module")
        if nullspace_basis(system):
            raise CatalogError("dual-bimodule action not unique")
        mats = {
            v: RMatrix(
                [
                    [sol.data[var(v, i, j)][0] for j in range(nu.dims[v])]
                    for i in range(x.dims[v])
                ],
                x.dims[v],
                nu.dims[v],
            )
            for v in base.vertices
        }
        self._theta = RepMap(nu, x, mats, check=False)
        return self._theta

    def dim_vectors(self):
        dims, vertices = self._rep.dims, self.base_quiver.vertices
        return tuple(dims[v] for v in vertices), tuple(dims[prime(v)] for v in vertices)

    def total_dim(self) -> int:
        return self._rep.total_dim()

    def is_zero(self) -> bool:
        return self._rep.is_zero()

    def __repr__(self):
        x, y = self.dim_vectors()
        return f"DupModule(X{x}, Y{y})"


@dataclass
class DupMap:
    """Morphism of duplicated modules; ``f`` and ``g`` are its restrictions
    to the two copies of the base quiver."""

    source: DupModule
    target: DupModule
    h: RepMap  # source.rep() -> target.rep()

    def _restrict(self, source: Rep, target: Rep, rename) -> RepMap:
        mats = {v: self.h.mats[rename(v)] for v in source.quiver.vertices}
        return RepMap(source, target, mats, check=False)

    @property
    def f(self) -> RepMap:  # x_part -> x_part
        return self._restrict(self.source.x_part, self.target.x_part, _unprimed)

    @property
    def g(self) -> RepMap:  # y_part -> y_part
        return self._restrict(self.source.y_part, self.target.y_part, prime)


def _dual_path_matrix(base_cat, y_rep: Rep, mp) -> RMatrix:
    """Matrix of the action of the dual-path generator of ``mp`` on Y.

    Rows are indexed by the chosen basis of Hom(Y, P_y), columns by the
    Y-component at the end of the path; entry (i, j) is the coefficient of
    the path in the image of the j-th basis vector under the i-th hom.
    """
    q = y_rep.quiver
    y, x = mp.start, mp.end
    _, bases, _ = base_cat.nak_data(y_rep)
    path_index = paths_from(q, y)[x].index(mp.arrows)
    rows = []
    for b in bases[y]:
        rows.append(list(b.mats[x].data[path_index]) if b.mats[x].rows else [0] * y_rep.dims[x])
    return RMatrix(rows, len(bases[y]), y_rep.dims[x])


def triple_to_rep(x: Rep, y: Rep, theta: RepMap) -> Rep:
    """The duplicated-quiver representation of the triple (X, Y, theta)."""
    q = x.quiver
    report = dup_quiver_report(q)
    base_cat = path_category(q)
    if theta.source.dim_vector() != base_cat.nakayama(y).dim_vector():
        raise ValueError("theta must start at the canonical Nakayama image")
    dims = {v: x.dims[v] for v in q.vertices}
    dims.update({prime(v): y.dims[v] for v in q.vertices})
    mats = {a.name: x.mats[a.name] for a in q.arrows}
    mats.update({prime(a.name): y.mats[a.name] for a in q.arrows})
    for name, _, tgt, mp in report.connecting:
        mats[name] = theta.mats[tgt] @ _dual_path_matrix(base_cat, y, mp)
    return Rep(report.dup, dims, mats)


def rep_to_triple(rep: Rep, base: Quiver) -> DupModule:
    """View a duplicated-quiver representation as a module over the
    duplicated algebra of ``base``; its triple is derived on first read."""
    if rep.quiver != dup_quiver_report(base).dup:
        raise ValueError("representation is not over the duplicated quiver")
    return DupModule(rep, base)


def _from_triple(x: Rep, y: Rep, theta: RepMap) -> DupModule:
    # the given parts become the views, so the X of an embedded A-module is
    # that very A-module and isomorphism tests against it stop at identity
    return DupModule(triple_to_rep(x, y, theta), x.quiver, (x, y, theta))


# -- standard modules and the category ---------------------------------------


def embed_A(x: Rep) -> DupModule:
    """The module (X, 0, 0): an A-module seen over the duplicated algebra."""
    y = reps.zero_rep(x.quiver)
    return _from_triple(x, y, reps.zero_map(path_category(x.quiver).nakayama(y), x))


def proj_primed(q: Quiver, x: str) -> DupModule:
    """The projective-injective at the primed vertex: (nu P_x, P_x, id)."""
    cat = path_category(q)
    p = cat.proj[x]
    nu = cat.nakayama(p)
    return _from_triple(nu, p, reps.identity_map(nu))


def inj_primed(q: Quiver, x: str) -> DupModule:
    """The injective at the primed vertex: (0, I_x, 0)."""
    return _primed_only(injective_rep(q, x))


def simple_primed(q: Quiver, x: str) -> DupModule:
    return _primed_only(simple_rep(q, x))


def _primed_only(y: Rep) -> DupModule:
    """The module (0, Y, 0)."""
    zero = reps.zero_rep(y.quiver)
    return _from_triple(zero, y, reps.zero_map(path_category(y.quiver).nakayama(y), zero))


@dataclass
class StandardDupModules:
    simple: dict
    simple_primed: dict
    projective: dict  # P at unprimed vertices = embedded projectives
    projective_primed: dict  # P at primed vertices, projective-injective
    injective_primed: dict


def standard_dup_modules(q: Quiver) -> StandardDupModules:
    return StandardDupModules(
        {x: embed_A(simple_rep(q, x)) for x in q.vertices},
        {x: simple_primed(q, x) for x in q.vertices},
        {x: embed_A(projective_rep(q, x)) for x in q.vertices},
        {x: proj_primed(q, x) for x in q.vertices},
        {x: inj_primed(q, x) for x in q.vertices},
    )


_dup_cache: dict = {}


def dup_category(q: Quiver) -> ModuleCategory:
    """The module category of the duplicated algebra (cached per quiver)."""
    if q in _dup_cache:
        return _dup_cache[q]
    report = dup_quiver_report(q)
    dq = report.dup
    projectives = {}
    injectives = {}
    simples = {}
    prim = {x: proj_primed(q, x).rep() for x in q.vertices}
    for x in q.vertices:
        pbar = embed_A(projective_rep(q, x)).rep()
        assert pbar.dims[x] == 1
        projectives[x] = (pbar, RMatrix.column([1]))
        ppr = prim[x]
        assert ppr.dims[prime(x)] == 1
        projectives[prime(x)] = (ppr, RMatrix.column([1]))
        # the injective at the unprimed vertex is the projective-injective
        assert ppr.dims[x] == 1
        injectives[x] = (ppr, RMatrix([[1]], 1, 1))
        ipr = inj_primed(q, x).rep()
        assert ipr.dims[prime(x)] == 1
        injectives[prime(x)] = (ipr, RMatrix([[1]], 1, 1))
        simples[x] = embed_A(simple_rep(q, x)).rep()
        simples[prime(x)] = simple_primed(q, x).rep()

    def op_builder():
        opq = opposite(q)
        op = dup_category(opq)
        vmap = {}
        for v in q.vertices:
            vmap[v] = prime(v)
            vmap[prime(v)] = v
        amap = {}
        for a in q.arrows:
            amap[a.name] = prime(a.name)
            amap[prime(a.name)] = a.name
        for _, _, _, mp in report.connecting:
            rev = type(mp)(mp.end, mp.start, tuple(reversed(mp.arrows)))
            amap[mp.name] = rev.name
        return op, vmap, amap

    cat = ModuleCategory(dq, projectives, injectives, simples, op_builder)
    _dup_cache[q] = cat
    return cat


# -- public operations on modules ---------------------------------------------


def hom_basis_dup(m: DupModule, n: DupModule):
    """Basis of the morphism space."""
    return [DupMap(m, n, h) for h in dup_category(m.base_quiver).hom(m.rep(), n.rep())]


def hom_dim_dup(m: DupModule, n: DupModule) -> int:
    return len(dup_category(m.base_quiver).hom(m.rep(), n.rep()))


def is_isomorphic_dup(m: DupModule, n: DupModule) -> bool:
    return reps.is_isomorphic(m.rep(), n.rep())


@dataclass
class StructureData:
    top: DupModule
    socle: DupModule
    radical: DupModule


def structure(m: DupModule) -> StructureData:
    q = m.base_quiver
    cat = dup_category(q)
    rad, _ = cat.radical(m.rep())
    top, _ = cat.top(m.rep())
    soc, _ = cat.socle(m.rep())
    return StructureData(
        rep_to_triple(top, q), rep_to_triple(soc, q), rep_to_triple(rad, q)
    )


@dataclass
class CoversEnvelopes:
    cover: DupModule
    cover_map: DupMap
    envelope: DupModule
    envelope_map: DupMap


def covers_and_envelopes(m: DupModule) -> CoversEnvelopes:
    q = m.base_quiver
    cat = dup_category(q)
    cover = cat.cover(m.rep())
    p0 = rep_to_triple(cover.p0, q)
    _, i0_rep, j = cat.envelope(m.rep())
    i0 = rep_to_triple(i0_rep, q)
    return CoversEnvelopes(p0, DupMap(p0, m, cover.q), i0, DupMap(m, i0, j))


@dataclass
class SyzygyPair:
    omega: DupModule
    cosyzygy: DupModule


def syzygy_pair(m: DupModule) -> SyzygyPair:
    q = m.base_quiver
    cat = dup_category(q)
    omega, _ = cat.syzygy(m.rep())
    cosyz, _ = cat.cosyzygy(m.rep())
    return SyzygyPair(rep_to_triple(omega, q), rep_to_triple(cosyz, q))


def tau_dup_pair(m: DupModule) -> TauPair:
    q = m.base_quiver
    cat = dup_category(q)
    t = cat.tau(m.rep())
    ti = cat.tau_inv(m.rep())
    return TauPair(
        PROJECTIVE if t is None else rep_to_triple(t, q),
        INJECTIVE if ti is None else rep_to_triple(ti, q),
    )


def ext1_dup(m: DupModule, n: DupModule) -> int:
    return dup_category(m.base_quiver).ext1_dim(m.rep(), n.rep())


def algebra_dimension(q: Quiver) -> int:
    """k-dimension of the duplicated algebra: three copies of dim A."""
    dim_a = sum(projective_rep(q, x).total_dim() for x in q.vertices)
    return 3 * dim_a


def pd_dup(m: DupModule) -> int:
    q = m.base_quiver
    return dup_category(q).pd(m.rep(), cap=algebra_dimension(q))


# -- the knitted catalog -------------------------------------------------------


@dataclass
class DupCatalog:
    """ind of the duplicated algebra with flags; left-part flags are filled
    by :mod:`dupcat.leftpart` after the catalog is built."""

    base: Quiver
    report: object
    catalog: ARCatalog
    modules: tuple  # DupModule per entry
    proj_injective: tuple
    in_ind_A: tuple
    in_L: Optional[tuple] = None
    in_sigma: Optional[tuple] = None

    @property
    def entries(self):
        return self.catalog.entries

    @cached_property
    def reach(self):
        """reach[i][j]: a chain of nonzero morphisms leads from entry i to j."""
        return hom_reach(self.modules)

    @cached_property
    def pd_table(self):
        """Projective dimension of every entry."""
        ctx = dup_category(self.base)
        return tuple(ctx.pd(e) for e in self.entries)

    def find_module(self, m: DupModule) -> Optional[int]:
        return self.catalog.find(m.rep())


def hom_reach(modules):
    """Reflexive-transitive closure of the nonzero-hom relation."""
    n = len(modules)
    if n == 0:
        return []
    cat = dup_category(modules[0].base_quiver)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and cat.hom_dim(modules[i].rep(), modules[j].rep()) > 0:
                reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def knit_ind_dup(q: Quiver, cap: int = 10000) -> DupCatalog:
    """Knit the AR catalog of the duplicated algebra (cap-guarded)."""
    cat = dup_category(q)
    ar = cat.knit(cap)
    modules = tuple(rep_to_triple(e, q) for e in ar.entries)
    proj_inj = tuple(
        p and i for p, i in zip(ar.projective, ar.injective)
    )
    in_a = tuple(m.y_part.is_zero() for m in modules)
    return DupCatalog(q, dup_quiver_report(q), ar, modules, proj_inj, in_a)


# -- junction diagnostics -------------------------------------------------------


@dataclass
class JunctionPattern:
    zero_count: int
    commuting_count: int
    family_sizes: tuple


def path_action_vanishes(q: Quiver, names, start: str) -> bool:
    """Does the path act by zero on the regular module of the dup algebra?"""
    cat = dup_category(q)
    for z in cat.quiver.vertices:
        if not cat.proj[z].act_path(tuple(names), start).is_zero():
            return False
    return True


def junction_composite_pattern(q: Quiver) -> JunctionPattern:
    """Zero/commutativity pattern of length-two composites through the junction.

    Composites with equal endpoints are grouped; a family is a maximal set of
    pairwise proportional nonzero composites, and composites in families of
    size at least two count as identified ("commuting").
    """
    report = dup_quiver_report(q)
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
                from .linalg import rank

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
