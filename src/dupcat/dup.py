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

:func:`embed_A` returns one module per A-module ``Rep``, kept by the
quiver's session (:mod:`dupcat.session`), so the Hom, Ext^1 and presentation
caches of an embedded module are shared by every caller; so are the standard
modules and the category.  Hom, Ext^1, syzygies, AR translates, projective
dimension and isomorphism are methods of the category :func:`dup_category`
returns; they take ``m.rep()``, and :func:`rep_to_triple` views a result as
a :class:`DupModule` again.

Its AR quiver holds two copies of ind A: the A-modules on the unprimed
vertices, closed under predecessors, and the A'-modules on the primed
vertices, closed under successors.  Its knit takes tau^{-1} on both from
the knit of ind A (:func:`_copies`) and runs the Nakayama route only on the
entries injective in a copy and on those between the copies.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import CatalogError
from .linalg import RMatrix, nullspace_basis, rank, solve_matrix
from .modcat import ARCatalog, ModuleCategory
from .quiver import Quiver, opposite, paths_from, prime
from . import reps
from .hereditary import knit_ind_A, path_category
from .reps import Rep, RepMap
from .session import session


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
        for name, _, tgt, mp in session(base).report.connecting:
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
    report = session(q).report
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
    if rep.quiver != session(base).report.dup:
        raise ValueError("representation is not over the duplicated quiver")
    return DupModule(rep, base)


def _from_triple(x: Rep, y: Rep, theta: RepMap) -> DupModule:
    # the given parts become the views, so the X of an embedded A-module is
    # that very A-module and isomorphism tests against it stop at identity
    return DupModule(triple_to_rep(x, y, theta), x.quiver, (x, y, theta))


# -- standard modules and the category ---------------------------------------


def embed_A(x: Rep) -> DupModule:
    """The module (X, 0, 0): an A-module seen over the duplicated algebra.

    One module per Rep x, kept by the session, so every caller shares its
    presentation, Hom and Ext^1 caches; the standard modules of
    ``path_category`` map to the embedded ones of ``standard_dup_modules``.
    """
    embedded = session(x.quiver).embedded
    if x.uid not in embedded:
        y = reps.zero_rep(x.quiver)
        nu_y = path_category(x.quiver).nakayama(y)
        embedded[x.uid] = _from_triple(x, y, reps.zero_map(nu_y, x))
    return embedded[x.uid]


def proj_primed(q: Quiver, x: str) -> DupModule:
    """The projective-injective at the primed vertex: (nu P_x, P_x, id)."""
    return standard_dup_modules(q).projective_primed[x]


def _projective_injective(p: Rep) -> DupModule:
    """The module (nu P, P, id)."""
    nu = path_category(p.quiver).nakayama(p)
    return _from_triple(nu, p, reps.identity_map(nu))


def _primed_only(y: Rep) -> DupModule:
    """The module (0, Y, 0)."""
    zero = reps.zero_rep(y.quiver)
    return _from_triple(zero, y, reps.zero_map(path_category(y.quiver).nakayama(y), zero))


class StandardDupModules(NamedTuple):
    simple: dict
    simple_primed: dict
    projective: dict  # P at unprimed vertices = embedded projectives
    projective_primed: dict  # P at primed vertices, projective-injective
    injective_primed: dict
    embedded_injective: dict  # (I_x, 0, 0), not injective here


def standard_dup_modules(q: Quiver) -> StandardDupModules:
    """The standard modules its session keeps, built on the standard
    modules of ``path_category(q)``."""
    return session(q).standard_dup_modules


def build_standard_dup_modules(q: Quiver) -> StandardDupModules:
    cat = path_category(q)
    return StandardDupModules(
        {x: embed_A(cat.simple[x]) for x in q.vertices},
        {x: _primed_only(cat.simple[x]) for x in q.vertices},
        {x: embed_A(cat.proj[x]) for x in q.vertices},
        {x: _projective_injective(cat.proj[x]) for x in q.vertices},
        {x: _primed_only(cat.inj[x]) for x in q.vertices},
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
        pbar = _one_dim_at(std.projective[x].rep(), x, f"projective at {x}")
        projectives[x] = (pbar, RMatrix.column([1]))
        ppr = _one_dim_at(std.projective_primed[x].rep(), prime(x), f"projective at {prime(x)}")
        projectives[prime(x)] = (ppr, RMatrix.column([1]))
        # the injective at the unprimed vertex is the projective-injective
        injectives[x] = (_one_dim_at(ppr, x, f"injective at {x}"), RMatrix([[1]], 1, 1))
        ipr = _one_dim_at(std.injective_primed[x].rep(), prime(x), f"injective at {prime(x)}")
        injectives[prime(x)] = (ipr, RMatrix([[1]], 1, 1))
        simples[x] = std.simple[x].rep()
        simples[prime(x)] = std.simple_primed[x].rep()

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

    return ModuleCategory(
        report.dup, projectives, injectives, simples, op_builder, lambda cat, cap: _copies(q, cat, cap)
    )


def _copy(x: Rep, dup: Quiver, rename) -> Rep:
    """The A-module x on one copy of the base quiver in the duplicated
    quiver (``rename`` gives a base vertex or arrow its name there), zero
    elsewhere."""
    return Rep(
        dup,
        {rename(v): x.dims[v] for v in x.quiver.vertices},
        {rename(a.name): x.mats[a.name] for a in x.quiver.arrows},
    )


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
    for rename in (_unprimed, prime):
        copies = [_copy(e, cat.quiver, rename) for e in ar.entries]
        for i, j in ar.tau_inv_of.items():
            table[cat.content_id(copies[i])] = copies[j]
    return table


# -- the knitted catalog -------------------------------------------------------


class DupCatalog:
    """ind of the duplicated algebra with flags; left-part flags are filled
    by :mod:`dupcat.leftpart` after the catalog is built."""

    def __init__(
        self, base: Quiver, catalog: ARCatalog, modules: tuple, proj_injective: tuple, in_ind_A: tuple,
        in_L: Optional[tuple] = None, in_sigma: Optional[tuple] = None
    ):
        self.base = base
        self.catalog = catalog
        self.modules = modules  # DupModule per entry
        self.proj_injective = proj_injective
        self.in_ind_A = in_ind_A
        self.in_L = in_L
        self.in_sigma = in_sigma

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
        """Projective dimension of every entry."""
        ctx = dup_category(self.base)
        return tuple(ctx.pd(e) for e in self.entries)

    def ext1_dim(self, i: int, j: int) -> int:
        """dim Ext^1(entry i, entry j) by the AR formula from the hom table
        (``ARCatalog.ext1_by_tau``); CatalogError when ``pd_table`` gives
        entry i projective dimension > 1, where the formula needs the maps
        through injectives."""
        pd = self.pd_table[i]
        if pd > 1:
            raise CatalogError(f"Ext^1 from entry {i}: its projective dimension is {pd}, not <= 1")
        return self.catalog.ext1_by_tau(i, j)

    def find_module(self, m: DupModule) -> Optional[int]:
        return self.catalog.find(m.rep())

    def indices(self, modules) -> list:
        """The entry index of each of the indecomposable ``modules``;
        CatalogError naming the first one the catalog lacks."""
        found = [self.find_module(m) for m in modules]
        if None in found:
            raise CatalogError(f"module {modules[found.index(None)]} is missing from the catalog")
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
    modules = tuple(rep_to_triple(e, q) for e in ar.entries)
    proj_inj = tuple(
        p and i for p, i in zip(ar.projective, ar.injective)
    )
    in_a = tuple(m.y_part.is_zero() for m in modules)
    return DupCatalog(q, ar, modules, proj_inj, in_a)


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
