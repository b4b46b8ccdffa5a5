"""A module category presented by a quiver with designated projectives.

Both the hereditary path algebra and its duplicated algebra are driven
through this one engine.  A category instance knows, for every vertex z of
its quiver, the indecomposable projective P_z (with a generator in its
z-component), the indecomposable injective I_z (with an evaluation
functional on its z-component) and the simple S_z.  Everything else is
generic:

* every fact about a module is kept per content, not per object, in one
  fact table on the category (:meth:`ModuleCategory._fact`): a content
  table gives each dimension vector with its arrow matrices a small id, and
  covers, presentations, tau, duals, Nakayama images and Hom bases are
  kept under (fact, id[, id]), so a module rebuilt as another object (a
  twin) reuses every fact already known; the per-vertex frames, the arrow
  maps and the sums of projectives are kept in the same table by value;
* projective covers lift a basis of the top through Yoneda evaluation at the
  generator: a per-vertex frame of arrow paths from the generator, built once,
  gives the map P_z -> N with generator |-> v without a Hom solve;
  injective envelopes extend the socle, syzygies and cosyzygies are their
  kernels/cokernels;
* the direct sum of a list of projectives (or of their Nakayama images) is
  built once per category;
* the Nakayama functor is D Hom(-, A), realized on one module at a time via
  bases of Hom(M, P_z); for a projective P_x they are read by Yoneda at the
  generator, with no Hom system; the AR translate tau M is the kernel of its
  action on a minimal projective presentation, whose components between
  indecomposable projectives are read, by Yoneda, as their values at the
  generators;
* tau^{-1} is computed by duality through the opposite category and kept
  per content;
* the AR quiver of a representation-finite category is knitted as the
  tau^{-1}-closure of the projectives (an entry is injective exactly when
  it has no tau^{-1}), with tau^{-1} taken from a table of copies where
  the category has one (the duplicated algebra's two copies of ind A);
  its arrows are then read along the meshes: the radicals of the
  projectives are decomposed, the middle term of each almost split
  sequence is predicted from the arrows already known, and the sequence
  is the cokernel of the source map of its left end, whose
  components are irreducible maps already held (the inclusions into the
  projectives and the components of earlier sequences); the cokernel is
  certified to be the predicted entry N by an invertible map in a basis of
  Hom(coker, N) with one element: dim End(N) = 1 bounds dim Ext^1(N, tau N)
  by 1 (the AR formula), so the non-split sequence spans it;
* dim Hom between any two catalog entries is one entry of the catalog's
  hom table, knitted along the certified meshes on first read (never by
  the knit itself) and certified against the dimension vectors by Yoneda;
  Ext^1 from a source of projective dimension <= 1 is the table entry of
  its tau (the AR formula), with no system built;
* indecomposables are looked up by dimension vector (directing modules are
  determined by it), with an invertible map (``reps.is_isomorphic``)
  deciding every hit, its verdict kept per pair of contents; the same index
  serves the knit, catalog lookups and decompositions;
* isomorphism of any two modules is decided by their Krull-Schmidt
  multiplicities against the knitted catalog.
"""

from __future__ import annotations

from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from operator import add, sub
from typing import NamedTuple, Optional

from .errors import CapExceededError, CatalogError, CycleDetectedError
from .linalg import (
    RMatrix,
    coordinates_in_span,
    nullspace_basis,
    pivot_columns,
    rank,
    solve_matrix,
)
from .quiver import Quiver
from . import reps
from .reps import Rep, RepMap, hom_basis, kernel, cokernel, direct_sum


class CoverData(NamedTuple):
    """Minimal projective cover: parts (vertex, lift vector), sum and map."""

    parts: list  # [(vertex z, lift RMatrix column)]
    p0: Rep
    injections: list
    projections: list
    q: RepMap  # p0 -> M, surjective


class Presentation(NamedTuple):
    cover0: CoverData
    omega: Rep
    incl: RepMap  # omega -> P0
    cover1: Optional[CoverData]  # None when omega == 0


_MISSING = object()  # a fact not yet in the table (a kept fact may be None)


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


def dim_index(modules) -> dict:
    """Dimension vector -> ascending indices of the modules that have it."""
    index = {}
    for i, m in enumerate(modules):
        index.setdefault(m.dim_vector(), []).append(i)
    return index


def _mesh_order(into, tau_of, what: str) -> tuple:
    """The entries in a topological order of the arrows (``into[j]`` lists
    (source, multiplicity) of the arrows into j) and the tau links j -> tau j;
    CatalogError, prefixed ``what``, on an oriented cycle."""
    graph = {j: [s for s, _ in sources] for j, sources in enumerate(into)}
    for j, t in tau_of.items():
        graph[j].append(t)
    try:
        return tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise CatalogError(
            f"{what}: the AR arrows and tau links have an oriented cycle through entries {exc.args[1]}"
        ) from None


class ARSequence(NamedTuple):
    """The almost split sequence 0 -> tau N -f-> E -g-> N -> 0 ending at
    entry ``right``: f is the source map of entry ``left`` = tau N, and E
    (``middle_rep``) is the direct sum of the ``middle`` entries in index
    order."""

    left: int
    right: int
    middle: tuple  # ((entry index, multiplicity), ...)
    f: RepMap  # tau N -> E
    g: RepMap  # E -> N
    middle_rep: Rep


class ARCatalog:
    """Indecomposables of a representation-finite category with AR structure.

    The first entries are the projectives P_z in the order of the quiver's
    vertices.  The knit fills ``arrows`` and ``sequences`` after
    construction.
    """

    def __init__(
        self, category: "ModuleCategory", entries: tuple, projective: tuple, injective: tuple,
        tau_inv_of: dict, tau_of: dict, arrows: tuple = (), sequences: Optional[dict] = None
    ):
        self.category = category
        self.entries = entries
        self.projective = projective
        self.injective = injective
        self.tau_inv_of = tau_inv_of  # index -> index of tau^{-1}
        self.tau_of = tau_of  # inverse of the above
        self.arrows = arrows  # (source index, target index, multiplicity)
        self.sequences = {} if sequences is None else sequences  # right entry -> ARSequence

    @cached_property
    def index(self) -> dict:
        """The entries by dimension vector (:func:`dim_index`)."""
        return dim_index(self.entries)

    def find(self, m: Rep) -> Optional[int]:
        return self.category.find_iso(m, self.entries, self.index)

    @cached_property
    def hom_table(self) -> tuple:
        """``hom_table[i][j]`` = dim Hom(entry i, entry j), read off the AR
        quiver and certified once.

        dim Hom(M, -) is additive on the meshes with a correction of 1 at M
        (the hammock of M): applying Hom(M, -) to the AR sequence
        0 -> tau X -> E -> X -> 0 leaves a cokernel only when M = X, where it
        is End(M) / rad End(M), one-dimensional for the directing modules of
        a representation-finite triangular algebra; and a map M -> P into a
        projective that is not an isomorphism factors through rad P.  So,
        with the entries visited in a topological order of the arrows and
        the tau links,

            h[j] = sum of mult * h[s] over the arrows s -> j
                   - h[tau j] when j is not projective  + 1 when j = M.

        One column (j) is knitted at a time for every source at once.  The
        table is then certified by Yoneda against the matrices (see
        :meth:`_certify_hom_table`), so a wrong arrow, multiplicity or tau
        link raises CatalogError naming an entry.
        """
        n = len(self.entries)
        into = [[] for _ in range(n)]
        for s, t, mult in self.arrows:
            into[t].append((s, mult))
        cols = [None] * n  # cols[j][i] = dim Hom(entry i, entry j)
        for j in _mesh_order(into, self.tau_of, "hom table"):
            col = [0] * n
            for s, mult in into[j]:
                col = list(map(add, col, cols[s] if mult == 1 else [mult * h for h in cols[s]]))
            t = self.tau_of.get(j)
            if t is not None:
                col = list(map(sub, col, cols[t]))
            col[j] += 1
            cols[j] = col
        rows = tuple(zip(*cols))
        self._certify_hom_table(rows)
        return rows

    def _certify_hom_table(self, rows) -> None:
        """CatalogError naming an entry unless every dim Hom is >= 0, every
        dim End is 1, the row of each projective P_z is coordinate z of the
        dimension vectors (dim Hom(P_z, N) = dim N_z) and the column of each
        injective I_z is the same (dim Hom(N, I_z) = dim N_z).  The injective
        entries are matched to the I_z by dimension vector, which is exact:
        I_z is one-dimensional at z, and equal dimension vectors for z != w
        would give paths z -> w and w -> z in a quiver without oriented
        cycles."""
        vertices = self.category.quiver.vertices
        dims = [e.dim_vector() for e in self.entries]
        for i, row in enumerate(rows):
            if row[i] != 1:
                raise CatalogError(f"hom table: dim End(entry {i}) is {row[i]}, not 1")
            if min(row) < 0:
                j = row.index(min(row))
                raise CatalogError(f"hom table: dim Hom(entry {i}, entry {j}) is {row[j]} < 0")
        inj_vertex = {self.category.inj[z].dim_vector(): k for k, z in enumerate(vertices)}
        injectives = {}  # vertex position -> entry index
        for e in (e for e, flag in enumerate(self.injective) if flag):
            k = inj_vertex.get(dims[e])
            if k is None or k in injectives:
                raise CatalogError(f"hom table: injective entry {e} is not one of the I_z")
            injectives[k] = e
        if len(injectives) != len(vertices):
            raise CatalogError("hom table: the injective entries are not the I_z")
        for k, z in enumerate(vertices):
            inj = injectives[k]
            for j, d in enumerate(dims):
                if rows[k][j] != d[k]:
                    raise CatalogError(
                        f"hom table: dim Hom(P_{z}, entry {j}) is {rows[k][j]}, "
                        f"but entry {j} has dimension {d[k]} at {z}"
                    )
                if rows[j][inj] != d[k]:
                    raise CatalogError(
                        f"hom table: dim Hom(entry {j}, I_{z}) is {rows[j][inj]}, "
                        f"but entry {j} has dimension {d[k]} at {z}"
                    )

    def ext1_by_tau(self, i: int, j: int) -> int:
        """dim Hom(entry j, tau entry i), and 0 from a projective entry i:
        dim Ext^1(entry i, entry j) by the AR formula when entry i has
        projective dimension <= 1 (then no injective maps nonzero into
        tau entry i, so no map to it factors through one)."""
        t = self.tau_of.get(i)
        return 0 if t is None else self.hom_table[j][t]


class ModuleCategory:
    def __init__(self, quiver: Quiver, projectives, injectives, simples, op_builder, copies=None):
        """``projectives[z] = (Rep, generator column)``;
        ``injectives[z] = (Rep, evaluation row)``; ``simples[z] = Rep``.
        ``op_builder()`` must return (opposite category, vertex_map, arrow_map).
        ``copies(category, cap)``, when given, returns the table of tau^{-1}
        by content id that :meth:`knit` tries before the Nakayama route.
        """
        self.quiver = quiver
        self.proj = {z: p for z, (p, _) in projectives.items()}
        self.gen = {z: g for z, (_, g) in projectives.items()}
        self.inj = {z: i for z, (i, _) in injectives.items()}
        self.inj_eval = {z: e for z, (_, e) in injectives.items()}
        self.simple = dict(simples)
        self._op_builder = op_builder
        self._copies = copies
        self._op = None
        self._content_ids = {}  # content key -> id, see content_id
        self._uid_ids = {}  # Rep.uid -> content id
        self._facts = {}  # see _fact and _kept
        self._catalog: Optional[ARCatalog] = None
        self._proj_at = {self.content_id(p): z for z, p in self.proj.items()}  # content id -> z

    # -- plumbing ----------------------------------------------------------

    def opposite(self):
        if self._op is None:
            op, vmap, amap = self._op_builder()
            inv_v = {w: v for v, w in vmap.items()}
            inv_a = {w: v for v, w in amap.items()}
            self._op = (op, vmap, amap, inv_v, inv_a)
        return self._op

    def content_id(self, m: Rep) -> int:
        """The id of m's content: its dimension vector and its arrow
        matrices in quiver order.

        Modules with equal content share an id, and with it every fact kept
        below, because each is a deterministic function of the content.
        The key references the matrices' entry tuples (nothing is copied)
        and is hashed once per object: the id is kept per ``Rep.uid``.
        """
        i = self._uid_ids.get(m.uid)
        if i is None:
            key = (m.dim_vector(), tuple(m.mats[a.name].data for a in self.quiver.arrows))
            i = self._uid_ids[m.uid] = self._content_ids.setdefault(key, len(self._content_ids))
        return i

    def _fact(self, fact: str, compute, m: Rep, n: Optional[Rep] = None):
        """The fact named ``fact`` of m, or of the pair (m, n), from the fact
        table: ``compute(m)`` or ``compute(m, n)`` runs once per content id
        (pair of ids), under the key (fact, id[, id])."""
        if n is None:
            return self._kept((fact, self.content_id(m)), compute, m)
        return self._kept((fact, self.content_id(m), self.content_id(n)), compute, m, n)

    def _kept(self, key, compute, *args):
        """The fact table's value under ``key``; ``compute(*args)`` on the
        first request.  Keys by value (a vertex, an arrow name, a vertex
        tuple) serve the facts that are not about a module."""
        value = self._facts.get(key, _MISSING)
        if value is _MISSING:
            value = self._facts[key] = compute(*args)
        return value

    def hom(self, m: Rep, n: Rep):
        """Basis of Hom(m, n), kept per content pair: a module with the
        content of m or n may stand as the source or target of its maps."""
        return self._fact("hom", lambda m, n: tuple(hom_basis(m, n)), m, n)

    def iso(self, m: Rep, n: Rep) -> bool:
        """Decide m = n by ``reps.is_isomorphic`` (exact when m or n is
        indecomposable), kept per unordered pair of contents; equal contents
        are isomorphic with no system built."""
        if m.dim_vector() != n.dim_vector():
            return False
        a, b = self.content_id(m), self.content_id(n)
        if a == b:
            return True
        key = ("iso", a, b) if a < b else ("iso", b, a)
        return self._kept(key, reps.is_isomorphic, m, n)

    def find_iso(self, m: Rep, modules, index) -> Optional[int]:
        """Index of a module in ``modules`` isomorphic to m, or None.

        Only the modules sharing m's dimension vector (``index``, from
        :func:`dim_index`) are tried, each by :meth:`iso`.  Exact when m or
        every listed module is indecomposable.
        """
        for i in index.get(m.dim_vector(), ()):
            if self.iso(m, modules[i]):
                return i
        return None

    def _frame(self, z):
        """Arrow steps from the generator of P_z whose images form a basis of
        every P_z(v), and the inverse of that basis per vertex.

        ``steps[i] = (vertex, parent step or None, arrow)``; ``order[v]`` lists
        the steps at v.  Built once per vertex by greedy rank over a worklist:
        a step is kept when its image is independent of those kept at its
        vertex, so the kept images span an arrow-stable subspace containing
        the generator, i.e. the submodule it generates.  Raises CatalogError
        when that is not all of P_z.
        """
        return self._kept(("frame", z), self._build_frame, z)

    def _build_frame(self, z):
        p = self.proj[z]
        steps, images = [], []
        order = {v: [] for v in self.quiver.vertices}

        def keep(v, parent, arrow, image):
            cand = RMatrix.hstack([images[i] for i in order[v]] + [image])
            if rank(cand) > len(order[v]):
                order[v].append(len(steps))
                steps.append((v, parent, arrow))
                images.append(image)

        keep(z, None, None, self.gen[z])
        i = 0
        while i < len(steps):
            v = steps[i][0]
            for a in self.quiver.arrows_from[v]:
                keep(a.target, i, a.name, p.mats[a.name] @ images[i])
            i += 1
        binv = {}
        for v, idx in order.items():
            if len(idx) != p.dims[v]:
                raise CatalogError(f"projective at {z} is not generated by its generator")
            if idx:
                basis = RMatrix.hstack([images[i] for i in idx])
                binv[v] = solve_matrix(basis, RMatrix.identity(basis.rows))
        return steps, order, binv

    def yoneda_map(self, z, n: Rep, vec: RMatrix) -> RepMap:
        """The unique map P_z -> n sending the generator to ``vec``.

        Evaluated on the frame of P_z: the image of the step along a path is
        n(path) @ vec.  The commuting squares certify a module map (a
        ValueError when n breaks a relation P_z satisfies), and it is unique
        because the generator generates P_z.
        """
        steps, order, binv = self._frame(z)
        images = []
        for _, parent, arrow in steps:
            images.append(vec if parent is None else n.mats[arrow] @ images[parent])
        mats = {
            v: RMatrix.hstack([images[i] for i in order[v]]) @ binv[v]
            for v in n.support
            if order[v]
        }
        return RepMap(self.proj[z], n, mats)

    def lam(self, arrow_name: str) -> RepMap:
        """Left multiplication P_z -> P_w along the arrow w -> z, built once."""
        return self._kept(("lam", arrow_name), self._build_lam, arrow_name)

    def _build_lam(self, arrow_name: str) -> RepMap:
        a = self.quiver.arrow_by_name[arrow_name]
        w, z = a.source, a.target
        vec = self.proj[w].mats[arrow_name] @ self.gen[w]
        return self.yoneda_map(z, self.proj[w], vec)

    # -- radical / socle / top ----------------------------------------------

    def _arrow_images(self, m: Rep, v) -> RMatrix:
        """The matrices of the arrows into v, side by side: their columns
        span the radical of m at v."""
        incoming = [m.mats[a.name] for a in self.quiver.arrows_into[v]]
        return RMatrix.hstack(incoming) if incoming else RMatrix.zeros(m.dims[v], 0)

    def radical(self, m: Rep):
        """The radical of m with its inclusion; its basis at v is the arrow
        images into v that are independent of those before them."""
        bases = {}
        for v in self.quiver.vertices:
            cols = []
            if m.dims[v]:
                stacked = self._arrow_images(m, v)
                cols = [stacked.column_at(j) for j in pivot_columns(stacked)]
            bases[v] = RMatrix.from_columns(cols, m.dims[v])
        return reps.sub_from_subspaces(m, bases)

    def _socle_basis(self, m: Rep, v) -> RMatrix:
        """Columns spanning the socle of m at v: the joint kernel of the
        arrows leaving v."""
        outgoing = [m.mats[a.name] for a in self.quiver.arrows_from[v]]
        if not (outgoing and m.dims[v]):
            return RMatrix.identity(m.dims[v])
        return RMatrix.from_columns(nullspace_basis(RMatrix.vstack(outgoing)), m.dims[v])

    def socle(self, m: Rep):
        bases = {v: self._socle_basis(m, v) for v in self.quiver.vertices}
        return reps.sub_from_subspaces(m, bases)

    def top(self, m: Rep):
        _, incl = self.radical(m)
        return cokernel(incl)

    # -- covers and envelopes -------------------------------------------------

    def _complement_columns(self, sub: RMatrix):
        """Standard basis vectors completing the column span of ``sub``: in
        order, each e_i independent of sub and of the e_k before it, i.e.
        the pivot columns of [sub | I] past sub."""
        d = sub.rows
        ident = RMatrix.identity(d)
        return [
            RMatrix.column(ident.data[j - sub.cols])
            for j in pivot_columns(RMatrix.hstack([sub, ident]))
            if j >= sub.cols
        ]

    def cover(self, m: Rep) -> CoverData:
        """Minimal projective cover of m, kept per content."""
        return self._fact("cover", self._cover, m)

    def _cover(self, m: Rep) -> CoverData:
        parts = []
        for z in m.support:
            for e in self._complement_columns(self._arrow_images(m, z)):
                parts.append((z, e))
        if not parts:
            p0 = reps.zero_rep(self.quiver)
            q = reps.zero_map(p0, m)
            if not m.is_zero():
                raise CatalogError("nonzero module with zero top")
            return CoverData([], p0, [], [], q)
        p0, injections, projections = self._proj_sum(tuple(z for z, _ in parts))
        part_maps = [self.yoneda_map(z, m, vec) for z, vec in parts]
        mats = {v: RMatrix.hstack([pm.mats[v] for pm in part_maps]) for v in m.support}
        q = RepMap(p0, m, mats, check=False)
        if not q.is_surjective():
            raise CatalogError("projective cover not surjective")
        return CoverData(parts, p0, injections, projections, q)

    def presentation(self, m: Rep) -> Presentation:
        """Minimal projective presentation of m, kept per content; its second
        cover is the cover of the syzygy, shared with the syzygy's own
        presentation."""
        return self._fact("presentation", self._presentation, m)

    def _presentation(self, m: Rep) -> Presentation:
        cover0 = self.cover(m)
        omega, incl = kernel(cover0.q)
        cover1 = None if omega.is_zero() else self.cover(omega)
        return Presentation(cover0, omega, incl, cover1)

    def envelope(self, m: Rep):
        """Injective envelope (parts, I0, j: m -> I0)."""
        soc_parts = []  # (z, functional row on m_z)
        for z in m.support:
            soc_basis = self._socle_basis(m, z)
            s = soc_basis.cols
            if s == 0:
                continue
            completion = RMatrix.hstack([soc_basis] + self._complement_columns(soc_basis))
            inv = solve_matrix(completion, RMatrix.identity(completion.rows))
            if inv is None:
                raise CatalogError("socle completion is not invertible")
            for jrow in range(s):
                functional = RMatrix([list(inv.data[jrow])], 1, m.dims[z])
                soc_parts.append((z, functional))
        if not soc_parts:
            if not m.is_zero():
                raise CatalogError("nonzero module with zero socle")
            i0 = reps.zero_rep(self.quiver)
            return [], i0, reps.zero_map(m, i0)
        part_maps = []
        for z, functional in soc_parts:
            basis = self.hom(m, self.inj[z])
            if len(basis) != m.dims[z]:
                raise CatalogError("injective hom dimension mismatch")
            rows = [(self.inj_eval[z] @ b.mats[z]).data[0] for b in basis]
            sol = coordinates_in_span(rows, functional.data[0])
            if sol is None:
                raise CatalogError("socle functional not realizable")
            f = reps.zero_map(m, self.inj[z])
            for c, b in zip(sol, basis):
                if c != 0:
                    f = f.add(b.scale(c))
            part_maps.append(f)
        summands = [self.inj[z] for z, _ in soc_parts]
        i0, injections, _ = direct_sum(summands)
        mats = {v: RMatrix.vstack([pm.mats[v] for pm in part_maps]) for v in m.support}
        j = RepMap(m, i0, mats, check=False)
        if not j.is_injective():
            raise CatalogError("envelope map not injective")
        return [z for z, _ in soc_parts], i0, j

    def cosyzygy(self, m: Rep):
        _, _, j = self.envelope(m)
        return cokernel(j)

    # -- Nakayama and AR translates -------------------------------------------

    def nak_data(self, m: Rep):
        """D Hom(m, A) together with the chosen bases of Hom(m, P_z) and
        their flattenings, kept per content."""
        return self._fact("nakayama", self._nak_data, m)

    def _nak_data(self, m: Rep):
        x = self._proj_at.get(self.content_id(m))
        if x is not None:
            return self._nak_of_projective(x)
        bases = {z: self.hom(m, self.proj[z]) for z in self.quiver.vertices}
        flat = {z: [b.flatten() for b in bases[z]] for z in self.quiver.vertices}
        dims = {z: len(bases[z]) for z in self.quiver.vertices}
        mats = {}
        for a in self.quiver.arrows:
            w, z = a.source, a.target
            lam = self.lam(a.name)
            cols = [_coords(flat[w], lam.compose(b), "postcomposition") for b in bases[z]]
            mats[a.name] = RMatrix.from_columns(cols, dims[w]).transpose()
        return Rep(self.quiver, dims, mats), bases, flat

    def _nak_of_projective(self, x):
        """nu(P_x) by Yoneda, with no Hom system: the basis of Hom(P_x, P_z)
        is the maps sending the generator to the standard basis of P_z(x)
        (:meth:`yoneda_map`, whose squares certify each map), so
        postcomposition with lam(a): P_z -> P_w has the matrix lam(a) at x,
        and the arrow a of nu(P_x) acts by its transpose."""
        bases = {}
        for z in self.quiver.vertices:
            ident = RMatrix.identity(self.proj[z].dims[x])
            bases[z] = tuple(self.yoneda_map(x, self.proj[z], RMatrix.column(e)) for e in ident.data)
        flat = {z: [b.flatten() for b in bases[z]] for z in self.quiver.vertices}
        dims = {z: len(bases[z]) for z in self.quiver.vertices}
        mats = {a.name: self.lam(a.name).mats[x].transpose() for a in self.quiver.arrows}
        return Rep(self.quiver, dims, mats), bases, flat

    def nakayama(self, m: Rep) -> Rep:
        return self.nak_data(m)[0]

    def _proj_sum(self, zs, nakayama=False):
        """(sum, injections, projections) of the P_z, or of the nu(P_z), for
        the vertex tuple ``zs``; built once per tuple and shared."""
        return self._kept(("sum", zs, nakayama), self._build_proj_sum, zs, nakayama)

    def _build_proj_sum(self, zs, nakayama):
        if nakayama:
            return direct_sum([self.nak_data(self.proj[z])[0] for z in zs])
        return direct_sum([self.proj[z] for z in zs])

    def _nak_of_parts(self, parts):
        """nu(P_{z1} + ... + P_{zk}) assembled blockwise."""
        if not parts:
            return reps.zero_rep(self.quiver)
        return self._proj_sum(tuple(z for z, _ in parts), nakayama=True)[0]

    def tau(self, m: Rep) -> Optional[Rep]:
        """D Tr of m via the Nakayama image of a minimal presentation, kept
        per content.

        Returns None when m is projective.
        """
        return self._fact("tau", self._tau, m)

    def _tau(self, m: Rep) -> Optional[Rep]:
        """The kernel of nu(f1): nu(P1) -> nu(P0).

        By Yoneda a map P_w -> P_z is its value at the generator of P_w, so
        the component P_wj -> P_zi of f1 is one vector x_ji in P_zi(w_j), the
        image of the lift of the j-th part of P1's cover; and the Nakayama
        basis map b: P_zi -> P_v composed with it has the coordinates
        E(w_j, v)^-1 (b at w_j) x_ji in the Nakayama basis of Hom(P_wj, P_v)
        (:meth:`_generator_values_inv`).
        """
        pres = self.presentation(m)
        if pres.cover1 is None:
            return None
        parts0, parts1 = pres.cover0.parts, pres.cover1.parts
        nu1 = self._nak_of_parts(parts1)
        nu0 = self._nak_of_parts(parts0)
        # x[j][i]: the value of the component P_wj -> P_zi at the generator
        x = []
        for wj, lift in parts1:
            image = pres.incl.mats[wj] @ lift
            x.append([proj.mats[wj] @ image for proj in pres.cover0.projections])
        # the Nakayama bases of the P0 summands
        bases0 = [self.nak_data(self.proj[zi])[1] for zi, _ in parts0]
        mats = {}
        for v in self.quiver.vertices:
            blocks = []
            for (wj, _), xj in zip(parts1, x):
                values = [b.mats[wj] @ xji for bases, xji in zip(bases0, xj) for b in bases[v]]
                einv = self._generator_values_inv(wj, v)
                blocks.append(einv @ RMatrix.hstack(values) if values else RMatrix.zeros(einv.rows, 0))
            mats[v] = RMatrix.vstack(blocks).transpose()
        nu_f1 = RepMap(nu1, nu0, mats, check=False)
        t, _ = kernel(nu_f1)
        if t.is_zero():
            raise CatalogError("tau of a non-projective came out zero")
        return t

    def _generator_values_inv(self, w, z) -> RMatrix:
        """E(w, z)^-1, kept per vertex pair: E(w, z) holds, column by column,
        the values at the generator of P_w of the Nakayama basis of
        Hom(P_w, P_z), so it must be square and invertible (Yoneda:
        Hom(P_w, P_z) = P_z(w)); CatalogError otherwise."""
        return self._kept(("generator values", w, z), self._build_generator_values_inv, w, z)

    def _build_generator_values_inv(self, w, z) -> RMatrix:
        basis = self.nak_data(self.proj[w])[1][z]
        d = self.proj[z].dims[w]
        values = [b.mats[w] @ self.gen[w] for b in basis]
        e = RMatrix.hstack(values) if values else RMatrix.zeros(d, 0)
        inv = solve_matrix(e, RMatrix.identity(d)) if e.rows == e.cols else None
        if inv is None:
            raise CatalogError(
                f"the Nakayama basis of Hom(P_{w}, P_{z}) is not a basis of P_{z}({w}) at the generator"
            )
        return inv

    def tau_inv(self, m: Rep) -> Optional[Rep]:
        """Tr D of m by duality through the opposite category, kept per
        content; None if injective."""
        return self._fact("tau_inv", self._tau_inv, m)

    def _tau_inv(self, m: Rep) -> Optional[Rep]:
        op, _, _, inv_v, inv_a = self.opposite()
        t = op.tau(self._dual(m))
        return None if t is None else reps.dualize(t, self.quiver, inv_v, inv_a)

    def _dual(self, m: Rep) -> Rep:
        """D m over the opposite quiver, built once per content."""
        op, vmap, amap, _, _ = self.opposite()
        return self._fact("dual", lambda m: reps.dualize(m, op.quiver, vmap, amap), m)

    def pd(self, m: Rep) -> int:
        """Projective dimension of m.

        The algebra is triangular (its quiver has no oriented cycle), so its
        global dimension is below the number n of vertices; a syzygy that
        has not vanished after n steps raises CatalogError.
        """
        k = 0
        cur = m
        while True:
            pres = self.presentation(cur)
            if pres.omega.is_zero():
                return k
            cur = pres.omega
            k += 1
            if k >= len(self.quiver.vertices):
                raise CatalogError(
                    f"syzygy nonzero after {k} steps, but the global dimension is below {k}"
                )

    # -- knitting ----------------------------------------------------------------

    def knit(self, cap: int = 10000) -> ARCatalog:
        """The AR catalog: the tau^{-1}-closure of the projectives.

        The projectives count against ``cap`` like every later entry.  The
        first successful knit is kept and returned by every later call, so
        all callers share one set of entries (and the facts kept for their
        contents).  A later call whose ``cap`` is below the kept entry count
        still raises CapExceededError, exactly as a fresh knit would.  A
        knit that raises is not kept.

        A category built with ``copies`` takes tau^{-1} of each entry whose
        content that table holds from it (built once per knit, under
        ``cap``); every other entry, so every entry whose injectivity is
        decided, goes through :meth:`tau_inv`.  A table answer is not kept
        as a fact: like every link, it is certified by the almost split
        sequence ending at it (:meth:`_almost_split`), so a wrong answer
        raises CatalogError and a missing one only costs a Nakayama route.
        """
        if self._catalog is not None:
            if len(self._catalog.entries) > cap:
                raise CapExceededError(cap)
            return self._catalog
        entries = [self.proj[z] for z in self.quiver.vertices]
        if len(entries) > cap:
            raise CapExceededError(cap)
        copies = self._copies(self, cap) if self._copies else {}
        index = dim_index(entries)
        tau_inv_of = {}
        tau_of = {}
        i = 0
        while i < len(entries):
            n = copies.get(self.content_id(entries[i]))
            if n is None:
                n = self.tau_inv(entries[i])  # None exactly when entry i is injective
            if n is not None:
                j = self.find_iso(n, entries, index)
                if j is None:
                    j = len(entries)
                    index.setdefault(n.dim_vector(), []).append(j)
                    entries.append(n)
                    if len(entries) > cap:
                        raise CapExceededError(cap)
                else:
                    if j in tau_of or j < len(self.proj):
                        raise CycleDetectedError(
                            f"tau^{-1} of entry {i} revisits entry {j}"
                        )
                tau_inv_of[i] = j
                tau_of[j] = i
            i += 1
        projective = tuple(k < len(self.proj) for k in range(len(entries)))
        injective = tuple(k not in tau_inv_of for k in range(len(entries)))
        catalog = ARCatalog(
            self,
            tuple(entries),
            projective,
            injective,
            tau_inv_of,
            tau_of,
        )
        self._fill_ar_structure(catalog)
        self._catalog = catalog
        return catalog

    def try_decompose(self, e: Rep, candidates, index):
        """Peel candidate indecomposables off e; returns (mults, residual).

        ``mults`` lists (candidate index, multiplicity) sorted by index, and
        the residual is what no candidate splits off.  ``index`` is
        :func:`dim_index` of the candidates.  The residual's dimension vector
        is looked up first, and again after each peel; only on a miss are
        the smaller candidates scanned in order.  A split_pair certificate
        decides every peel, so by Krull-Schmidt the multiplicities do not
        depend on the order.
        """
        mults = {}
        current = e
        k = 0  # candidates before k do not split off current
        while not current.is_zero():
            hit = self.find_iso(current, candidates, index)
            if hit is not None:
                mults[hit] = mults.get(hit, 0) + 1
                current = reps.zero_rep(self.quiver)
                break
            pair = None
            while pair is None and k < len(candidates):
                c = candidates[k]
                # an equal total dimension would mean an isomorphism, and
                # the lookup has ruled that out
                if c.total_dim() < current.total_dim() and all(
                    c.dims[v] <= current.dims[v] for v in self.quiver.vertices
                ):
                    pair = reps.split_pair(c, current)
                if pair is None:
                    k += 1
            if pair is None:
                break
            current, _ = cokernel(pair[0])
            mults[k] = mults.get(k, 0) + 1
        return sorted(mults.items()), current

    def decompose(self, e: Rep, catalog: ARCatalog):
        """Multiplicities of catalog entries in e; e must decompose fully."""
        result, current = self.try_decompose(e, catalog.entries, catalog.index)
        if not current.is_zero():
            raise CatalogError("module has a summand outside the catalog")
        return result

    def is_isomorphic(self, m: Rep, n: Rep) -> bool:
        """Decide m = n up to isomorphism, exactly, for any two modules of a
        representation-finite category.

        By Krull-Schmidt two modules are isomorphic iff each indecomposable
        occurs in both with the same multiplicity; both are decomposed
        against the knitted catalog (which :meth:`knit` builds on first
        use).  Raises CapExceededError when the category is not
        representation-finite and CatalogError when m or n is not a module
        of the category.  For a pair with an indecomposable side,
        :meth:`iso` decides the same without a catalog.
        """
        if m.dim_vector() != n.dim_vector():
            return False
        catalog = self.knit()
        return self.decompose(m, catalog) == self.decompose(n, catalog)

    def _fill_ar_structure(self, catalog: ARCatalog) -> None:
        """Irreducible arrows and almost split sequences, knitted along the
        meshes.

        The arrows into a projective P start at the summands X of rad P,
        found by :meth:`decompose`; the irreducible map X -> P is the
        inclusion of X as a summand of rad P, by a split_pair certificate.
        The arrows into a non-projective entry tau^{-1} M are predicted from
        the mesh: tau^{-1} Y for each arrow Y -> M with Y not injective, and
        each projective P with M a summand of rad P.  Entries are predicted
        in index order, where tau M precedes tau^{-1} M.  An arrow
        multiplicity above 1 raises CatalogError: its independent
        irreducible maps are not built.

        The sequences are then built in a topological order of the arrows
        and tau links (:func:`_mesh_order`), so that every irreducible map
        out of M is held before the sequence ending at tau^{-1} M, whose
        source map they form (:meth:`_almost_split`).
        """
        entries = catalog.entries
        held = {}  # (source index, target index) -> irreducible map
        into = []  # entry index -> [(source index, multiplicity)]
        radical_of = {}  # entry index -> [(projective index, multiplicity)]
        for idx, p in enumerate(entries[: len(self.proj)]):
            rad, incl = self.radical(p)
            into.append([] if rad.is_zero() else self.decompose(rad, catalog))
            for sidx, mult in into[idx]:
                radical_of.setdefault(sidx, []).append((idx, mult))
                pair = reps.split_pair(entries[sidx], rad)
                if pair is None:
                    raise CatalogError(f"entry {sidx} does not split off the radical of entry {idx}")
                held[sidx, idx] = incl.compose(pair[0])
        for idx in range(len(self.proj), len(entries)):
            predicted = {}
            for sidx, mult in into[catalog.tau_of[idx]]:
                if sidx in catalog.tau_inv_of:
                    j = catalog.tau_inv_of[sidx]
                    predicted[j] = predicted.get(j, 0) + mult
            for pidx, mult in radical_of.get(catalog.tau_of[idx], ()):
                predicted[pidx] = predicted.get(pidx, 0) + mult
            into.append(sorted(predicted.items()))
        catalog.arrows = tuple((s, t, mult) for t, sources in enumerate(into) for s, mult in sources)
        for s, t, mult in catalog.arrows:
            if mult != 1:
                raise CatalogError(
                    f"mesh of entry {t}: the arrow from entry {s} has multiplicity {mult}, "
                    "and only multiplicity 1 is built"
                )
        for idx in _mesh_order(into, catalog.tau_of, "knit"):
            if idx in catalog.tau_of:
                catalog.sequences[idx] = self._almost_split(catalog, idx, into[idx], held)

    def _almost_split(self, catalog: ARCatalog, idx: int, middle, held) -> ARSequence:
        """The almost split sequence 0 -> M -f-> E -g-> N -> 0 ending at
        entry idx = N, from the irreducible maps ``held``, to which the
        components of g are added.

        f has the held components M -> E_t, E is the direct sum of the
        ``middle`` entries E_t, and g is the projection onto coker f
        followed by an invertible map coker f -> N from a basis of
        Hom(coker f, N).  The certificate: f is injective, the basis holds
        an invertible map (coker f = N) and has one element (dim End(N) = 1).
        By the AR formula Ext^1(N, M) is dual to End(N) modulo the maps
        through projectives, so its dimension is at most 1; the E_t are
        distinct entries other than M, so by Krull-Schmidt the sequence does
        not split: it spans Ext^1(N, M) and is almost split.  A failing
        certificate raises CatalogError naming the entry.

        The AR formula needs tau N = M, which the Nakayama route gives by
        construction.  For an N taken from the knit's table of copies it
        comes from f instead: its components are irreducible maps certified
        before it (radical inclusions and components of earlier sequences,
        visited in mesh order) into the predicted middle term, so f is the
        source map of M, whose cokernel is tau^{-1} M; the invertible map
        then proves N = tau^{-1} M, whatever the table claimed.
        """
        entries = catalog.entries
        left = catalog.tau_of[idx]
        m, n = entries[left], entries[idx]
        comps = [held.get((left, t)) for t, _ in middle]
        what = f"almost split sequence ending at entry {idx}"
        if not middle or None in comps or left in dict(middle):
            raise CatalogError(f"{what}: the mesh predicts {middle}, not the targets of arrows from entry {left}")
        e, injections, _ = direct_sum([entries[t] for t, _ in middle])
        f = RepMap(m, e, {v: RMatrix.vstack([c.mats[v] for c in comps]) for v in m.support}, check=False)
        if not f.is_injective():
            raise CatalogError(f"{what}: the source map of entry {left} is not injective")
        coker, proj = cokernel(f)
        basis = hom_basis(coker, n)
        phi = next((h for h in basis if h.is_isomorphism()), None)
        if phi is None:
            raise CatalogError(f"{what}: the cokernel of the source map of entry {left} is not entry {idx}")
        if len(basis) != 1:
            raise CatalogError(f"{what}: dim End(entry {idx}) is {len(basis)}, not 1")
        g = phi.compose(proj)
        for (t, _), inj in zip(middle, injections):
            held[t, idx] = g.compose(inj)
        return ARSequence(left, idx, tuple(middle), f, g, e)
