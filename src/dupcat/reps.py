"""Representations of a quiver over Q and the linear algebra of morphisms.

A representation assigns to every vertex a rational vector space and to every
arrow y -> x a matrix mapping the space at y to the space at x.  Morphisms
are vertex-indexed matrix families with commuting squares; everything here is
a kernel, cokernel or solution space of one joint linear system.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .linalg import (
    RMatrix,
    coordinates_in_span,
    generic_max_rank,
    nullspace_basis,
    cokernel_basis,
    rank,
    right_inverse,
    solve_matrix,
)
from .quiver import Quiver

_uid_counter = itertools.count()


class Rep:
    """A representation: per-vertex dimensions and per-arrow matrices."""

    __slots__ = ("quiver", "dims", "mats", "uid")

    def __init__(self, quiver: Quiver, dims, mats):
        self.quiver = quiver
        self.dims = {v: int(dims.get(v, 0)) for v in quiver.vertices}
        self.mats = {}
        for a in quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                m = RMatrix.zeros(self.dims[a.target], self.dims[a.source])
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(
                    f"matrix for arrow {a.name} has shape {(m.rows, m.cols)}, "
                    f"expected {(self.dims[a.target], self.dims[a.source])}"
                )
            self.mats[a.name] = m
        self.uid = next(_uid_counter)

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.quiver.vertices)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def act_path(self, path, start: str) -> RMatrix:
        """Composite matrix of a path (tuple of arrow names) from ``start``."""
        m = RMatrix.identity(self.dims[start])
        v = start
        for name in path:
            a = self.quiver.arrow_by_name[name]
            assert a.source == v, "path does not start where claimed"
            m = self.mats[name] @ m
            v = a.target
        return m

    def __repr__(self):
        return f"Rep{self.dim_vector()}"


def zero_rep(q: Quiver) -> Rep:
    return Rep(q, {}, {})


class RepMap:
    """Morphism of representations: one matrix per vertex."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Rep, target: Rep, mats, check: bool = True):
        self.source = source
        self.target = target
        self.mats = {}
        for v in source.quiver.vertices:
            m = mats.get(v)
            if m is None:
                m = RMatrix.zeros(target.dims[v], source.dims[v])
            if (m.rows, m.cols) != (target.dims[v], source.dims[v]):
                raise ValueError(f"map at vertex {v} has wrong shape")
            self.mats[v] = m
        if check:
            for a in source.quiver.arrows:
                lhs = self.mats[a.target] @ source.mats[a.name]
                rhs = target.mats[a.name] @ self.mats[a.source]
                if lhs != rhs:
                    raise ValueError(f"square at arrow {a.name} does not commute")

    def compose(self, other: "RepMap") -> "RepMap":
        """self after other (other first)."""
        assert other.target is self.source or other.target.dims == self.source.dims
        return RepMap(
            other.source,
            self.target,
            {v: self.mats[v] @ other.mats[v] for v in self.mats},
            check=False,
        )

    def add(self, other: "RepMap") -> "RepMap":
        return RepMap(
            self.source,
            self.target,
            {v: self.mats[v] + other.mats[v] for v in self.mats},
            check=False,
        )

    def scale(self, c) -> "RepMap":
        return RepMap(
            self.source,
            self.target,
            {v: self.mats[v].scale(c) for v in self.mats},
            check=False,
        )

    def flatten(self):
        return tuple(
            x
            for v in self.source.quiver.vertices
            for x in self.mats[v].flatten()
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_injective(self) -> bool:
        return all(rank(m) == m.cols for m in self.mats.values())

    def is_surjective(self) -> bool:
        return all(rank(m) == m.rows for m in self.mats.values())

    def is_isomorphism(self) -> bool:
        return all(m.rows == m.cols and rank(m) == m.rows for m in self.mats.values())

    def inverse(self) -> "RepMap":
        mats = {}
        for v, m in self.mats.items():
            inv = solve_matrix(m, RMatrix.identity(m.rows))
            if inv is None or m.rows != m.cols:
                raise ValueError("map is not invertible")
            mats[v] = inv
        return RepMap(self.target, self.source, mats, check=False)

    def __repr__(self):
        return f"RepMap({self.source!r} -> {self.target!r})"


def identity_map(m: Rep) -> RepMap:
    return RepMap(
        m, m, {v: RMatrix.identity(m.dims[v]) for v in m.dims}, check=False
    )


def zero_map(source: Rep, target: Rep) -> RepMap:
    return RepMap(source, target, {}, check=False)


def hom_basis(m: Rep, n: Rep):
    """Basis of Hom(m, n): the joint kernel of all commuting-square constraints.

    Deterministic: variables are ordered vertex by vertex, row-major.
    """
    q = m.quiver
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return []

    def var(v, i, j):
        return offsets[v] + i * m.dims[v] + j

    rows = []
    for a in q.arrows:
        y, x = a.source, a.target
        ma, na = m.mats[a.name], n.mats[a.name]
        for i in range(n.dims[x]):
            for j in range(m.dims[y]):
                row = [Fraction(0)] * total
                for k in range(m.dims[x]):
                    row[var(x, i, k)] += ma.data[k][j]
                for k in range(n.dims[y]):
                    row[var(y, k, j)] -= na.data[i][k]
                if any(c != 0 for c in row):
                    rows.append(row)
    system = RMatrix(rows, len(rows), total)
    basis = []
    for vec in nullspace_basis(system):
        mats = {}
        for v in q.vertices:
            o = offsets[v]
            mats[v] = RMatrix(
                [
                    [vec[o + i * m.dims[v] + j] for j in range(m.dims[v])]
                    for i in range(n.dims[v])
                ],
                n.dims[v],
                m.dims[v],
            )
        basis.append(RepMap(m, n, mats, check=False))
    return basis


def hom_dim(m: Rep, n: Rep) -> int:
    return len(hom_basis(m, n))


# -- subs, quotients, sums ------------------------------------------------


def sub_from_subspaces(m: Rep, bases) -> tuple:
    """Subrepresentation spanned by per-vertex column-span bases.

    ``bases[v]`` is an RMatrix whose columns are independent vectors in the
    space at v; the spans must be arrow-stable.  Returns (sub, inclusion).
    """
    dims = {v: bases[v].cols for v in m.quiver.vertices}
    mats = {}
    for a in m.quiver.arrows:
        y, x = a.source, a.target
        image = m.mats[a.name] @ bases[y]
        sol = solve_matrix(bases[x], image)
        if sol is None:
            raise ValueError(f"subspaces not stable under arrow {a.name}")
        mats[a.name] = sol
    sub = Rep(m.quiver, dims, mats)
    incl = RepMap(sub, m, {v: bases[v] for v in m.quiver.vertices}, check=False)
    return sub, incl


def kernel(f: RepMap) -> tuple:
    """Kernel subrepresentation with its inclusion."""
    bases = {}
    for v in f.source.quiver.vertices:
        cols = nullspace_basis(f.mats[v])
        bases[v] = RMatrix.from_columns(cols, f.source.dims[v])
    return sub_from_subspaces(f.source, bases)


def cokernel(f: RepMap) -> tuple:
    """Cokernel representation with the projection from the target."""
    n = f.target
    projs = {}
    dims = {}
    for v in n.quiver.vertices:
        q, d = cokernel_basis(f.mats[v])
        projs[v] = q
        dims[v] = d
    mats = {}
    for a in n.quiver.arrows:
        y, x = a.source, a.target
        if dims[x] == 0 or n.dims[y] == 0:
            mats[a.name] = RMatrix.zeros(dims[x], dims[y])
            continue
        # induced map: solve C_a @ q_y = q_x @ N_a via a right inverse of q_y
        ca = projs[x] @ n.mats[a.name] @ right_inverse(projs[y])
        mats[a.name] = ca
    coker = Rep(n.quiver, dims, mats)
    proj = RepMap(n, coker, projs, check=False)
    for a in n.quiver.arrows:
        assert (
            coker.mats[a.name] @ projs[a.source] == projs[a.target] @ n.mats[a.name]
        ), "cokernel structure map ill-defined"
    return coker, proj


def direct_sum(parts) -> tuple:
    """Direct sum with canonical injections and projections."""
    parts = list(parts)
    assert parts, "empty direct sum needs an explicit quiver; use zero_rep"
    q = parts[0].quiver
    dims = {v: sum(p.dims[v] for p in parts) for v in q.vertices}
    mats = {
        a.name: RMatrix.block_diag([p.mats[a.name] for p in parts])
        for a in q.arrows
    }
    total = Rep(q, dims, mats)
    injections = []
    projections = []
    offset = {v: 0 for v in q.vertices}
    for p in parts:
        imats = {}
        pmats = {}
        for v in q.vertices:
            rows_i = []
            for i in range(dims[v]):
                row = [Fraction(0)] * p.dims[v]
                if offset[v] <= i < offset[v] + p.dims[v]:
                    row[i - offset[v]] = Fraction(1)
                rows_i.append(row)
            imats[v] = RMatrix(rows_i, dims[v], p.dims[v])
            pmats[v] = imats[v].transpose()
        injections.append(RepMap(p, total, imats, check=False))
        projections.append(RepMap(total, p, pmats, check=False))
        for v in q.vertices:
            offset[v] += p.dims[v]
    return total, injections, projections


# -- duality ---------------------------------------------------------------


def dualize(m: Rep, op_quiver: Quiver, vertex_map, arrow_map) -> Rep:
    """The dual representation over the opposite quiver (matrices transposed)."""
    dims = {vertex_map[v]: m.dims[v] for v in m.quiver.vertices}
    mats = {}
    for a in m.quiver.arrows:
        mats[arrow_map[a.name]] = m.mats[a.name].transpose()
    return Rep(op_quiver, dims, mats)


# -- isomorphism and splitting ---------------------------------------------


def split_pair(c: Rep, e: Rep):
    """A split mono/epi pair (f: c -> e, g: e -> c) with g.f = id, or None.

    c divides e (Krull-Schmidt) iff the identity of c is a sum of composites
    through e; when c is indecomposable some single term of such a sum is
    already invertible because End(c) is local.
    """
    if c.is_zero():
        return None
    fs = hom_basis(c, e)
    gs = hom_basis(e, c)
    if not fs or not gs:
        return None
    composites = [(g.compose(f), i, j) for i, f in enumerate(fs) for j, g in enumerate(gs)]
    target = identity_map(c).flatten()
    coords = coordinates_in_span([comp.flatten() for comp, _, _ in composites], target)
    if coords is None:
        return None
    # group the certificate by f-index and hunt for an invertible term
    by_f = {}
    for coeff, (_, i, j) in zip(coords, composites):
        if coeff == 0:
            continue
        by_f.setdefault(i, []).append((coeff, j))
    for i, terms in by_f.items():
        u = None
        for coeff, j in terms:
            part = gs[j].scale(coeff)
            u = part if u is None else u.add(part)
        comp = u.compose(fs[i])
        if comp.is_isomorphism():
            return fs[i], comp.inverse().compose(u)
    return None


def is_isomorphic(m: Rep, n: Rep, assume_indecomposable: bool = False) -> bool:
    """Decide m = n up to isomorphism.

    Default route: dimension vectors must agree and a generic element of
    Hom(m, n) must be invertible at every vertex (tested through the maximal
    rank of the span of block-diagonalized basis maps).  With
    ``assume_indecomposable`` a deterministic divisibility certificate is
    used instead; it is exact for indecomposables.
    """
    if m is n:
        return True
    if m.dim_vector() != n.dim_vector():
        return False
    if m.total_dim() == 0:
        return True
    if assume_indecomposable:
        return split_pair(m, n) is not None
    basis = hom_basis(m, n)
    if not basis:
        return False
    blocks = [
        RMatrix.block_diag([h.mats[v] for v in m.quiver.vertices]) for h in basis
    ]
    best = generic_max_rank(blocks)
    return rank(best) == m.total_dim()
