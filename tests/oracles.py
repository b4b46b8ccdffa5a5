"""Independent Hom and Ext^1 dimensions, presentations, tau and projective
dimensions that tests compare the library with.

The library reads dim Hom off its kept bases and the knitted hom table, and
Ext^1 off that table by the AR formula.  These oracles take another route:
the rank of the Hom system, and Ext^1 as a cokernel over a projective
presentation, from full Hom bases.

The library reads the first syzygy inside its projective cover and never
builds it as a module.  ``presentation`` builds it (``reps.kernel`` of the
cover) and then its own cover with Yoneda maps; ``tau`` and ``pd`` are the
library's routes on top of that presentation.  The library takes the
values at the generator of a Nakayama basis map as its coordinates, since
that basis sends the generator to the standard basis; ``tau`` solves for
the coordinates instead (``generator_values_inv``), so comparing the two
checks that claim.

The library maps a module into each injective I_z of its envelope by
Yoneda in the opposite category.  ``envelope`` picks the same socle
functionals and solves the Hom system Hom(M, I_z) for the map with each
evaluation at z.

The library builds the Nakayama image only of a projective P_x, by Yoneda.
``nak_data`` builds it for any module from bases of Hom(M, P_z) solved as
Hom systems, each postcomposition with an arrow solved for in the
flattened basis (``_coords``).

The library takes tau^{-1} = D tau D in the opposite category, which it
builds from its own standard modules on the opposite quiver.
``tau_inv_by_opposite_algebra`` builds that category again from the
opposite quiver, as the path category or the duplicated category of
``opposite(q)``, and renames its vertices and arrows.

``rebuilt`` makes the tampered copies of catalogs that the tamper tests
feed to the checks.

The library reads the left part off the knit of the duplicated algebra:
tau^{-1} of the embedded injectives off its links, and the radical
summands of each P_y' off its AR arrows.  ``left_part_by_radicals`` takes
the structure route instead: it computes each tau^{-1} through the
opposite category and peels the candidates off each radical with
``split_pair``.

The library reads the rank of a cover off the kernel elimination of its
presentation, and the component E_t -> N of an almost split sequence off
the columns of its end map at E_t's offset.  ``is_surjective`` takes the
rank of each block by ``linalg.rank``, and ``structure_maps`` builds the
canonical injections of a direct sum, so g_t can be composed as g after
the injection of E_t.

The library tabulates Ext^1 in the cluster category between the positions
of the fundamental domain once per session, off the hom table of ind A
(``cluster.Domain``), and checks the bijection with one clique search, on
the side of the duplicated algebra.  ``ext1_cluster_dim`` computes an
entry from full Hom bases instead, and ``enumerate_cluster_tilting`` is
the clique search on the cluster side, over the domain's masks: the
reference the library's list of projected sets is compared with.

The triple model is the other description of a module M over the
duplicated algebra: its restrictions X and Y to the two copies of the base
quiver and the map theta: nu(Y) -> X that the connecting arrows determine
(``triple``); ``triple_to_rep`` goes back.  The library keeps only the
representation and certifies it a module by Yoneda maps; solving for theta
is the independent route the tests compare that certificate with.
"""

import inspect
from typing import NamedTuple, Optional

from dupcat import reps
from dupcat.cluster import cliques, fundamental_domain
from dupcat.dup import _dual_path_matrix, dup_category, embed_A, standard_dup_modules
from dupcat.errors import CatalogError, NotDynkinError
from dupcat.hereditary import knit_ind_A, path_category, projective_rep
from dupcat.linalg import RMatrix, coordinates_in_span, nullspace_basis, rank, solve_matrix
from dupcat.modcat import CoverData
from dupcat.quiver import classify_dynkin, opposite, prime
from dupcat.reps import Rep, RepMap
from dupcat.session import session


def rebuilt(obj, **changes):
    """A new ``type(obj)`` from its constructor: each argument is the
    attribute of ``obj`` with its name, or its value in ``changes``.  The
    copy is built afresh, so none of the cached properties of ``obj``
    (``hom_table``, ``index``, ``reach``, ``pd_table``) carries over into it,
    as ``copy.copy`` would carry them."""
    params = inspect.signature(type(obj)).parameters
    unknown = set(changes) - set(params)
    if unknown:
        raise TypeError(f"{type(obj).__name__} takes no argument {sorted(unknown)}")
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in params})


def hom_dim_by_rank(m, n) -> int:
    """dim Hom(m, n): the unknowns of the ``reps.hom_basis`` system minus
    its rank, with no basis built."""
    system, _ = reps._hom_system(m, n)
    return system.cols - rank(system)


class Presentation(NamedTuple):
    """A minimal projective presentation with its syzygy built as a module."""

    cover0: CoverData
    omega: Rep
    incl: RepMap  # omega -> P0
    cover1: Optional[CoverData]  # None when omega == 0


def presentation(cat, m) -> Presentation:
    """The minimal presentation of m in ``cat``: the cover of m, its kernel
    Omega m as a module, and the cover of Omega m.  Kept per content in the
    fact table of ``cat``, under a key of its own."""
    return cat._fact("oracle presentation", lambda m: _presentation(cat, m), m)


def _presentation(cat, m) -> Presentation:
    cover0 = cat.cover(m)
    omega, incl = reps.kernel(cover0.q)
    cover1 = None if omega.is_zero() else cat.cover(omega)
    return Presentation(cover0, omega, incl, cover1)


def tau(cat, m) -> Optional[Rep]:
    """tau m as the kernel of nu(f1): nu(P1) -> nu(P0), the components of f1
    read at the generators of P1's cover through Omega m's inclusion; None
    when m is projective."""
    pres = presentation(cat, m)
    if pres.cover1 is None:
        return None
    parts0, parts1 = pres.cover0.parts, pres.cover1.parts
    x = []  # x[j][i]: the component P_wj -> P_zi at the generator
    for wj, lift in parts1:
        image = pres.incl.mats[wj] @ lift
        xj, o = [], 0
        for zi, _ in parts0:
            d = cat.proj[zi].dims[wj]
            xj.append(RMatrix(image.data[o : o + d], d, 1))
            o += d
        x.append(xj)
    bases0 = [cat.nak_data(cat.proj[zi])[1] for zi, _ in parts0]
    mats = {}
    for v in cat.quiver.vertices:
        blocks = []
        for (wj, _), xj in zip(parts1, x):
            values = [b.mats[wj] @ xji for bases, xji in zip(bases0, xj) for b in bases[v]]
            einv = generator_values_inv(cat, wj, v)
            blocks.append(einv @ RMatrix.hstack(values) if values else RMatrix.zeros(einv.rows, 0))
        mats[v] = RMatrix.vstack(blocks).transpose()
    nu_f1 = RepMap(cat._nak_of_parts(parts1), cat._nak_of_parts(parts0), mats, check=False)
    return reps.kernel(nu_f1)[0]


def generator_values_inv(cat, w, z) -> RMatrix:
    """E(w, z)^-1, where E(w, z) holds, column by column, the values at the
    generator of P_w of the Nakayama basis of Hom(P_w, P_z); CatalogError
    unless it is square and invertible (Yoneda: Hom(P_w, P_z) = P_z(w))."""
    basis = cat.nak_data(cat.proj[w])[1][z]
    d = cat.proj[z].dims[w]
    values = [b.mats[w] for b in basis]  # P_w(w) is spanned by the generator
    e = RMatrix.hstack(values) if values else RMatrix.zeros(d, 0)
    inv = solve_matrix(e, RMatrix.identity(d)) if e.rows == e.cols else None
    if inv is None:
        raise CatalogError(f"the Nakayama basis of Hom(P_{w}, P_{z}) is not a basis of P_{z}({w})")
    return inv


def envelope(cat, m):
    """(parts, I0, j: m -> I0): the socle of m at z completed to a basis
    of m_z gives one functional per socle vector, and its map m -> I_z is
    solved for in a basis of the Hom system Hom(m, I_z)."""
    soc_parts = []  # (z, functional row on m_z)
    for z in m.support:
        soc_basis = cat._socle_basis(m, z)
        completion = RMatrix.hstack([soc_basis] + cat._complement_columns(soc_basis))
        inv = solve_matrix(completion, RMatrix.identity(completion.rows))
        soc_parts += [(z, inv.data[k]) for k in range(soc_basis.cols)]
    maps = []
    for z, functional in soc_parts:
        basis = reps.hom_basis(m, cat.inj[z])
        if len(basis) != m.dims[z]:
            raise CatalogError("injective hom dimension mismatch")
        rows = [b.mats[z].data[0] for b in basis]  # I_z(z) is one-dimensional
        sol = coordinates_in_span(rows, functional)
        if sol is None:
            raise CatalogError("socle functional not realizable")
        f = reps.zero_map(m, cat.inj[z])
        for c, b in zip(sol, basis):
            f = f.add(b.scale(c))
        maps.append(f)
    i0 = reps.sum_rep([cat.inj[z] for z, _ in soc_parts])
    mats = {v: RMatrix.vstack([f.mats[v] for f in maps]) for v in m.support}
    return [z for z, _ in soc_parts], i0, RepMap(m, i0, mats)


def pd(cat, m) -> int:
    """The projective dimension of m: the number of nonzero syzygies, each
    built as a module by ``presentation``."""
    k = 0
    while not m.is_zero():
        m = presentation(cat, m).omega
        k += not m.is_zero()
    return k


def ext1_by_bases(cat, m, n) -> int:
    """dim Ext^1(m, n) as the cokernel of Hom(P0, n) -> Hom(Omega m, n),
    from full Hom bases over the minimal presentation (``presentation``)."""
    pres = presentation(cat, m)
    hom_omega = reps.hom_basis(pres.omega, n)
    if pres.cover1 is None or not hom_omega:
        return 0
    restricted = [h.compose(pres.incl).flatten() for h in reps.hom_basis(pres.cover0.p0, n)]
    width = len(hom_omega[0].flatten())
    return len(hom_omega) - rank(RMatrix([list(r) for r in restricted], len(restricted), width))


def _coords(span, f: RepMap, what: str) -> tuple:
    """Coordinates of the flattened map f in the flattened basis ``span``;
    CatalogError when ``what`` (the way f was made) left the span.  An empty
    span holds only the zero map."""
    if span:
        coords = coordinates_in_span(span, f.flatten())
    else:
        coords = () if f.is_zero() else None
    if coords is None:
        raise CatalogError(f"{what} left the hom span")
    return coords


def nak_data(cat, m) -> tuple:
    """(nu(m), bases of Hom(m, P_z)) from Hom systems, for any module m of
    ``cat``: the arrow a: w -> z of nu(m) acts by the transpose of
    postcomposition with lam(a): P_z -> P_w, solved for in the flattened
    basis.  Kept per content in the fact table of ``cat``, under a key of
    its own."""
    return cat._fact("oracle nakayama", lambda m: _nak_data(cat, m), m)


def _nak_data(cat, m) -> tuple:
    vertices = cat.quiver.vertices
    bases = {z: tuple(reps.hom_basis(m, cat.proj[z])) for z in vertices}
    flat = {z: [b.flatten() for b in bases[z]] for z in vertices}
    mats = {}
    for a in cat.quiver.arrows:
        lam = cat.lam(a.name)
        cols = [_coords(flat[a.source], lam.compose(b), "postcomposition") for b in bases[a.target]]
        mats[a.name] = RMatrix.from_columns(cols, len(bases[a.source])).transpose()
    return Rep(cat.quiver, {z: len(bases[z]) for z in vertices}, mats), bases


def dualize_renamed(m: Rep, op_quiver, vertex_map, arrow_map) -> Rep:
    """D m over ``op_quiver``, the vertex v and the arrow a of m renamed
    ``vertex_map[v]`` and ``arrow_map[a]`` there."""
    dims = {vertex_map[v]: m.dims[v] for v in m.quiver.vertices}
    mats = {arrow_map[a.name]: m.mats[a.name].transpose() for a in m.quiver.arrows}
    return Rep(op_quiver, dims, mats)


def opposite_algebra(category, q) -> tuple:
    """(category, vertex_map, arrow_map): ``category(opposite(q))`` (the
    path category or the duplicated category) and the names its vertices
    and arrows give those of ``category(q)``.  The duplicated quiver of
    opposite(q) swaps the copies: x corresponds to x', x' to x, the arrow a
    to a' and a' to a, and the connecting arrow of a maximal path to that of
    the reversed path."""
    opq = opposite(q)
    if category is path_category:
        return path_category(opq), {v: v for v in q.vertices}, {a.name: a.name for a in q.arrows}
    vmap, amap = {}, {}
    for v in q.vertices:
        vmap[v], vmap[prime(v)] = prime(v), v
    for a in q.arrows:
        amap[a.name], amap[prime(a.name)] = prime(a.name), a.name
    for _, _, _, mp in session(q).report.connecting:
        amap[mp.name] = type(mp)(mp.end, mp.start, tuple(reversed(mp.arrows))).name
    return dup_category(opq), vmap, amap


def tau_inv_by_opposite_algebra(category, q, m) -> Optional[Rep]:
    """tau^{-1} m = D tau D m, with tau taken in ``opposite_algebra``;
    None when m is injective."""
    op, vmap, amap = opposite_algebra(category, q)
    t = op.tau(dualize_renamed(m, op.quiver, vmap, amap))
    if t is None:
        return None
    back_v = {w: v for v, w in vmap.items()}
    back_a = {w: a for a, w in amap.items()}
    return dualize_renamed(t, category(q).quiver, back_v, back_a)


def _peel(e: Rep, candidates) -> tuple:
    """(the indices of the candidates split off e, in order and with
    repeats, what is left): each candidate is peeled off as often as
    ``split_pair`` finds it a summand."""
    found, current = [], e
    for i, c in enumerate(candidates):
        while not current.is_zero() and all(c.dims[v] <= current.dims[v] for v in c.quiver.vertices):
            pair = reps.split_pair(c, current)
            if pair is None:
                break
            current = reps.cokernel(pair[0])[0]
            found.append(i)
    return found, current


def left_part_by_radicals(q) -> list:
    """The members of the left part as modules, in the library's order: ind
    A embedded in ind A order, tau^{-1} of the embedded injective I_x for x
    in vertex order, then each P_y' whose radical decomposes into those
    modules and the P_z' in the left part."""
    ctx, std = dup_category(q), standard_dup_modules(q)
    candidates = [embed_A(e) for e in knit_ind_A(q).entries]
    candidates += [ctx.tau_inv(std.embedded_injective[x]) for x in q.vertices]
    always = len(candidates)
    pis = [std.projective_primed[y] for y in q.vertices]
    candidates += pis
    in_l = {}

    def pi_in_l(k) -> bool:
        # the radical summands of P_y' are along primed arrows: acyclic
        if k not in in_l:
            found, left = _peel(ctx.radical(pis[k])[0], candidates)
            in_l[k] = left.is_zero() and all(pi_in_l(i - always) for i in found if i >= always)
        return in_l[k]

    return candidates[:always] + [p for k, p in enumerate(pis) if pi_in_l(k)]


def is_surjective(f: RepMap) -> bool:
    """Whether f is onto: the rank of each block is the target's dimension,
    by ``linalg.rank``, the pivot count of the library's one elimination,
    which ``test_linalg`` checks against sympy and a Fraction Gauss-Jordan
    (the library reads it off the kernel elimination of the cover
    instead)."""
    return all(rank(f.mats[v]) == f.target.dims[v] for v in f.target.support)


def structure_maps(parts, total: Rep) -> list:
    """The canonical injections of ``parts`` into their sum ``total``: at
    each vertex the identity of the part between zero blocks (the library
    slices a map out of the sum's columns at the part's offset instead)."""
    maps = []
    offset = dict.fromkeys(total.quiver.vertices, 0)
    for p in parts:
        mats = {}
        for v in p.support:
            d, o, n = p.dims[v], offset[v], total.dims[v]
            offset[v] = o + d
            mats[v] = RMatrix.vstack([RMatrix.zeros(o, d), RMatrix.identity(d), RMatrix.zeros(n - o - d, d)])
        maps.append(RepMap(p, total, mats, check=False))
    return maps


def projections(parts, total):
    """The canonical projections of the direct sum ``total`` onto its
    ``parts``: the transposes of ``structure_maps``."""
    return [
        RepMap(total, inj.source, {v: m.transpose() for v, m in inj.mats.items()}, check=False)
        for inj in structure_maps(parts, total)
    ]


def domain_objects(q) -> list:
    """The fundamental domain of q in the order of its positions:
    ``("module", M)`` for ind A by (total dimension, dimension vector),
    then ``("shift", x)`` for P_x[1], x in vertex order."""
    modules = sorted(knit_ind_A(q).entries, key=lambda e: (e.total_dim(), e.dim_vector()))
    return [("module", m) for m in modules] + [("shift", x) for x in q.vertices]


def ext1_cluster_dim(q, i, j) -> int:
    """dim Ext^1 in the cluster category between positions i and j of the
    fundamental domain of q: between modules, Ext^1 both ways from full Hom
    bases (``ext1_by_bases``); between P_x[1] and M, dim Hom(P_x, M) by the
    rank of its Hom system; between shifted projectives, zero."""
    objects = domain_objects(q)
    (kind_i, o_i), (kind_j, o_j) = objects[i], objects[j]
    if kind_i == kind_j == "module":
        cat = path_category(q)
        return ext1_by_bases(cat, o_i, o_j) + ext1_by_bases(cat, o_j, o_i)
    if kind_i == kind_j == "shift":
        return 0
    x, m = (o_i, o_j) if kind_i == "shift" else (o_j, o_i)
    return hom_dim_by_rank(projective_rep(q, x), m)


def enumerate_cluster_tilting(q) -> list:
    """The clique search on the cluster side: every n-set of pairwise
    compatible positions of the fundamental domain (``Domain.compat``), as
    ascending tuples in lexicographic order.  NotDynkinError off Dynkin
    type; CatalogError for a position that is not rigid."""
    if classify_dynkin(q) is None:
        raise NotDynkinError("cluster-tilting enumeration requires Dynkin type")
    compat = fundamental_domain(q).compat
    if any(not mask >> i & 1 for i, mask in enumerate(compat)):
        raise CatalogError("fundamental-domain object not rigid")
    return cliques(compat, len(q.vertices))


# -- the triple model of the duplicated algebra --------------------------------


def restrict(m: Rep, q, rename) -> Rep:
    """The restriction of a module over the duplicated algebra of q to one
    copy of q; ``rename`` gives a vertex or arrow of q its name there
    (``str`` for X, ``prime`` for Y)."""
    return Rep(
        q,
        {v: m.dims[rename(v)] for v in q.vertices},
        {a.name: m.mats[rename(a.name)] for a in q.arrows},
    )


def theta(m: Rep, q) -> RepMap:
    """theta: nu(Y) -> X, the unique solution of the joint linear system
    given by its naturality squares and by matching the connecting-arrow
    actions.  CatalogError when the system has no solution or more than
    one, i.e. when m is not a module of the duplicated algebra of q."""
    x, y = restrict(m, q, str), restrict(m, q, prime)
    base_cat = path_category(q)
    nu, bases = nak_data(base_cat, y)
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += x.dims[v] * nu.dims[v]

    def var(v, i, j):
        return offsets[v] + i * nu.dims[v] + j

    rows, rhs = [], []
    for a in q.arrows:
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
    for name, _, tgt, mp in session(q).report.connecting:
        b = _dual_path_matrix(bases, y, mp)
        c = m.mats[name]
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
            [[sol.data[var(v, i, j)][0] for j in range(nu.dims[v])] for i in range(x.dims[v])],
            x.dims[v],
            nu.dims[v],
        )
        for v in q.vertices
    }
    return RepMap(nu, x, mats, check=False)


def triple(m: Rep, q) -> tuple:
    """(X, Y, theta) of a module over the duplicated algebra of q."""
    return restrict(m, q, str), restrict(m, q, prime), theta(m, q)


def triple_to_rep(x: Rep, y: Rep, th: RepMap) -> Rep:
    """The duplicated-quiver representation of the triple (X, Y, theta)."""
    q = x.quiver
    report = session(q).report
    nu, bases = nak_data(path_category(q), y)
    if th.source.dim_vector() != nu.dim_vector():
        raise ValueError("theta must start at the canonical Nakayama image")
    dims = {v: x.dims[v] for v in q.vertices}
    dims.update({prime(v): y.dims[v] for v in q.vertices})
    mats = {a.name: x.mats[a.name] for a in q.arrows}
    mats.update({prime(a.name): y.mats[a.name] for a in q.arrows})
    for name, _, tgt, mp in report.connecting:
        mats[name] = th.mats[tgt] @ _dual_path_matrix(bases, y, mp)
    return Rep(report.dup, dims, mats)
