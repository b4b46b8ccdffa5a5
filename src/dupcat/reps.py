"""Representations of a quiver over Q and the linear algebra of morphisms.

A representation assigns to every vertex a rational vector space and to every
arrow y -> x a matrix mapping the space at y to the space at x.  Morphisms
are vertex-indexed matrix families with commuting squares; everything here is
a kernel, cokernel or solution space of one joint linear system.

Maps are built and checked on their support: a block at a vertex where the
source or the target is zero is empty, so it is the shared zero matrix of
its shape, and no product, sum, rank or square is computed for it.
"""

from __future__ import annotations

import itertools

from .errors import CatalogError
from .linalg import (
    RMatrix,
    coordinates_in_span,
    nullspace_basis,
    cokernel_basis,
    rank,
    solve_matrix,
)
from .quiver import Quiver

_uid_counter = itertools.count()


class Rep:
    """A representation: per-vertex dimensions and per-arrow matrices."""

    __slots__ = ("quiver", "dims", "mats", "uid", "support", "_dim_vector")

    def __init__(self, quiver: Quiver, dims, mats):
        self.quiver = quiver
        self.dims = {v: int(dims.get(v, 0)) for v in quiver.vertices}
        self.mats = {}
        for a in quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                m = RMatrix.zeros(self.dims[a.target], self.dims[a.source])
            elif (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(
                    f"matrix for arrow {a.name} has shape {(m.rows, m.cols)}, "
                    f"expected {(self.dims[a.target], self.dims[a.source])}"
                )
            self.mats[a.name] = m
        self.uid = next(_uid_counter)
        self._dim_vector = tuple(self.dims.values())  # in vertex order
        self.support = tuple(v for v, d in zip(quiver.vertices, self._dim_vector) if d)

    def dim_vector(self):
        return self._dim_vector

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
            if a.source != v:
                raise ValueError("path does not start where claimed")
            m = self.mats[name] @ m
            v = a.target
        return m

    def __repr__(self):
        return f"Rep{self.dim_vector()}"


def zero_rep(q: Quiver) -> Rep:
    return Rep(q, {}, {})


def _support(m: Rep, n: Rep):
    """The vertices where a map m -> n has a non-empty block."""
    return [v for v in m.support if n.dims[v]]


class RepMap:
    """Morphism of representations: one matrix per vertex."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Rep, target: Rep, mats, check: bool = True):
        self.source = source
        self.target = target
        self.mats = {}
        sdims, tdims = source.dims, target.dims
        for v in source.quiver.vertices:
            m = mats.get(v)
            if m is None:
                m = RMatrix.zeros(tdims[v], sdims[v])
            elif m.rows != tdims[v] or m.cols != sdims[v]:
                raise ValueError(f"map at vertex {v} has wrong shape")
            self.mats[v] = m
        if check:
            for a in source.quiver.arrows:
                if not (source.dims[a.source] and target.dims[a.target]):
                    continue  # both sides are the same empty matrix
                lhs = self.mats[a.target] @ source.mats[a.name]
                rhs = target.mats[a.name] @ self.mats[a.source]
                if lhs != rhs:
                    raise ValueError(f"square at arrow {a.name} does not commute")

    def compose(self, other: "RepMap") -> "RepMap":
        """self after other (other first)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise ValueError("composition of maps with mismatched middle modules")
        return RepMap(
            other.source,
            self.target,
            {v: self.mats[v] @ other.mats[v] for v in _support(other.source, self.target)},
            check=False,
        )

    def add(self, other: "RepMap") -> "RepMap":
        return RepMap(
            self.source,
            self.target,
            {v: self.mats[v] + other.mats[v] for v in _support(self.source, self.target)},
            check=False,
        )

    def scale(self, c) -> "RepMap":
        return RepMap(
            self.source,
            self.target,
            {v: self.mats[v].scale(c) for v in _support(self.source, self.target)},
            check=False,
        )

    def flatten(self):
        return tuple(
            x
            for v in _support(self.source, self.target)
            for x in self.mats[v].flatten()
        )

    def is_zero(self) -> bool:
        return all(self.mats[v].is_zero() for v in _support(self.source, self.target))

    def is_injective(self) -> bool:
        return all(rank(self.mats[v]) == self.source.dims[v] for v in self.source.support)

    def is_isomorphism(self) -> bool:
        return self.source.dims == self.target.dims and self.is_injective()

    def inverse(self) -> "RepMap":
        if self.source.dims != self.target.dims:
            raise ValueError("map is not invertible")
        mats = {}
        for v in self.source.support:
            m = self.mats[v]
            inv = solve_matrix(m, RMatrix.identity(m.rows))
            if inv is None:
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


def _hom_system(m: Rep, n: Rep):
    """The commuting-square constraints on Hom(m, n) and the offset of each
    vertex's block of unknowns.

    Variables are ordered vertex by vertex, row-major; the system has one
    column per unknown.
    """
    q = m.quiver
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]

    # Row (a, i, j) says (h_x M_a - N_a h_y)[i][j] = 0 for a: y -> x.  Loops
    # are rejected by Quiver, so the h_x and h_y unknowns of a row are
    # disjoint and each coefficient is written once.
    rows = []
    for a in q.arrows:
        y, x = a.source, a.target
        ma, na = m.mats[a.name].data, n.mats[a.name].data
        mx, my, ny, oy = m.dims[x], m.dims[y], n.dims[y], offsets[y]
        for i in range(n.dims[x]):
            ni, xi = na[i], offsets[x] + i * mx
            for j in range(my):
                row = [0] * total
                for k in range(mx):
                    row[xi + k] = ma[k][j]
                for k in range(ny):
                    if ni[k]:
                        row[oy + k * my + j] = -ni[k]
                if any(row):
                    rows.append(tuple(row))
    return RMatrix._raw(tuple(rows), len(rows), total), offsets


def hom_basis(m: Rep, n: Rep):
    """Basis of Hom(m, n): the joint kernel of all commuting-square constraints.

    Deterministic: variables are ordered vertex by vertex, row-major.
    """
    system, offsets = _hom_system(m, n)
    basis = []
    for vec in nullspace_basis(system):
        mats = {}
        for v in m.quiver.vertices:
            o, c = offsets[v], m.dims[v]
            mats[v] = RMatrix._raw(
                tuple(vec[o + i * c : o + (i + 1) * c] for i in range(n.dims[v])),
                n.dims[v],
                c,
            )
        basis.append(RepMap(m, n, mats, check=False))
    return basis


# -- subs, quotients, sums ------------------------------------------------


def sub_from_subspaces(m: Rep, bases) -> tuple:
    """Subrepresentation spanned by per-vertex column-span bases.

    ``bases[v]`` is an RMatrix whose columns are independent vectors in the
    space at v; the spans must be arrow-stable.  Returns (sub, inclusion).
    An arrow from a zero subspace, or into a zero space, is stable with no
    solve; one into a zero subspace still needs a zero image.
    """
    dims = {v: bases[v].cols for v in m.quiver.vertices}
    mats = {}
    for a in m.quiver.arrows:
        y, x = a.source, a.target
        if not (dims[y] and m.dims[x]):
            continue
        image = m.mats[a.name] @ bases[y]
        sol = solve_matrix(bases[x], image)
        if sol is None:
            raise ValueError(f"subspaces not stable under arrow {a.name}")
        mats[a.name] = sol
    sub = Rep(m.quiver, dims, mats)
    incl = RepMap(sub, m, {v: bases[v] for v in m.quiver.vertices}, check=False)
    return sub, incl


def kernel_bases(f: RepMap) -> dict:
    """Per vertex, a basis of the kernel of f as columns in the source's
    coordinates: all of the source where the target is zero."""
    return {
        v: RMatrix.from_columns(nullspace_basis(f.mats[v]), d) if d and f.target.dims[v] else RMatrix.identity(d)
        for v, d in f.source.dims.items()
    }


def kernel(f: RepMap) -> tuple:
    """Kernel subrepresentation with its inclusion."""
    return sub_from_subspaces(f.source, kernel_bases(f))


def cokernel(f: RepMap) -> tuple:
    """Cokernel representation with the projection q from the target.

    q is the identity where f's source is zero.  Selecting the free columns
    of q_y (:func:`linalg.cokernel_basis`) is a right inverse of q_y, so the
    arrow a: y -> x acts on the cokernel by q_x N_a restricted to those
    columns.  Every square of q that is not empty is checked.
    """
    n = f.target
    projs = {}
    free = {}
    for v in n.quiver.vertices:
        if f.source.dims[v] and n.dims[v]:
            projs[v], free[v] = cokernel_basis(f.mats[v])
        else:
            projs[v], free[v] = RMatrix.identity(n.dims[v]), range(n.dims[v])
    dims = {v: len(free[v]) for v in n.quiver.vertices}
    mats = {}
    for a in n.quiver.arrows:
        y, x = a.source, a.target
        if dims[x] and dims[y]:
            na = n.mats[a.name]
            if dims[y] < na.cols:
                na = RMatrix._raw(tuple(tuple(row[j] for j in free[y]) for row in na.data), na.rows, dims[y])
            mats[a.name] = projs[x] @ na
    coker = Rep(n.quiver, dims, mats)
    try:
        proj = RepMap(n, coker, projs)
    except ValueError:
        raise CatalogError("cokernel structure map ill-defined") from None
    return coker, proj


def sum_rep(parts) -> Rep:
    """The direct sum of ``parts`` (block-diagonal arrow matrices), with no
    structure map built: part i holds the coordinates past those of the
    parts before it, and a caller reads its maps off that offset."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty direct sum needs an explicit quiver; use zero_rep")
    q = parts[0].quiver
    dims = {v: sum(p.dims[v] for p in parts) for v in q.vertices}
    mats = {
        a.name: RMatrix.block_diag([p.mats[a.name] for p in parts])
        for a in q.arrows
        if dims[a.source] and dims[a.target]
    }
    return Rep(q, dims, mats)


# -- duality ---------------------------------------------------------------


def dualize(m: Rep, op_quiver: Quiver) -> Rep:
    """The dual representation over the opposite quiver, which keeps every
    vertex and arrow name (matrices transposed)."""
    return Rep(op_quiver, m.dims, {a.name: m.mats[a.name].transpose() for a in m.quiver.arrows})


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
    if not fs:
        return None
    gs = hom_basis(e, c)
    if not gs:
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


def is_isomorphic(m: Rep, n: Rep) -> bool:
    """Decide m = n up to isomorphism from one Hom system: some basis map
    of Hom(m, n) is invertible.

    A True answer is always certified by that invertible map.  A False
    answer is exact when m or n is indecomposable, which every library
    caller meets.  If m = n by some iso phi, both are indecomposable, so
    End(m) is local (Fitting's lemma) and the maps that are not invertible
    form the proper subspace phi.rad End(m) of Hom(m, n); a basis cannot lie
    in a proper subspace.  Two decomposable modules are isomorphic when
    ``ModuleCategory.decompose`` gives them equal multiplicities.
    """
    if m is n:
        return True
    if m.dim_vector() != n.dim_vector():
        return False
    if m.total_dim() == 0:
        return True
    return any(f.is_isomorphism() for f in hom_basis(m, n))
