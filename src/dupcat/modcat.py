"""A module category presented by a quiver with designated projectives.

Both the hereditary path algebra and its duplicated algebra are driven
through this one engine.  A category instance knows, for every vertex z of
its quiver, the indecomposable projective P_z (with a generator in its
z-component), the indecomposable injective I_z (with an evaluation
functional on its z-component) and the simple S_z.  Everything else is
generic:

* projective covers lift a basis of the top, injective envelopes extend the
  socle, syzygies and cosyzygies are their kernels/cokernels;
* Ext^1(M, N) is the cokernel of Hom(P0, N) -> Hom(Omega M, N);
* the Nakayama functor is D Hom(-, A), realized on one module at a time via
  bases of Hom(M, P_z), and the AR translate tau M is the kernel of its
  action on a minimal projective presentation;
* tau^{-1} is computed by duality through the opposite category;
* the AR quiver of a representation-finite category is knitted as the
  tau^{-1}-closure of the projectives, with AR sequences and irreducible
  arrows reconstructed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import CapExceededError, CatalogError, CycleDetectedError
from .linalg import RMatrix, coordinates_in_span, rank, right_inverse, solve_matrix
from .quiver import Quiver
from . import reps
from .reps import Rep, RepMap, hom_basis, kernel, cokernel, direct_sum


@dataclass
class CoverData:
    """Minimal projective cover: parts (vertex, lift vector), sum and map."""

    parts: list  # [(vertex z, lift RMatrix column)]
    p0: Rep
    injections: list
    projections: list
    q: RepMap  # p0 -> M, surjective


@dataclass
class Presentation:
    cover0: CoverData
    omega: Rep
    incl: RepMap  # omega -> P0
    cover1: Optional[CoverData]  # None when omega == 0

    @property
    def f1(self) -> RepMap:
        assert self.cover1 is not None
        return self.incl.compose(self.cover1.q)


@dataclass
class ARSequence:
    left: int
    right: int
    middle: tuple  # ((entry index, multiplicity), ...)
    f: RepMap  # tau N -> E
    g: RepMap  # E -> N
    middle_rep: Rep


@dataclass
class ARCatalog:
    """Indecomposables of a representation-finite category with AR structure."""

    category: "ModuleCategory"
    entries: tuple
    projective: tuple
    injective: tuple
    tau_inv_of: dict  # index -> index of tau^{-1}
    tau_of: dict  # inverse of the above
    arrows: tuple = ()  # (source index, target index, multiplicity)
    sequences: dict = field(default_factory=dict)

    def find(self, m: Rep) -> Optional[int]:
        for i, e in enumerate(self.entries):
            if e.dim_vector() == m.dim_vector() and reps.is_isomorphic(
                m, e, assume_indecomposable=True
            ):
                return i
        return None


class ModuleCategory:
    def __init__(self, quiver: Quiver, projectives, injectives, simples, op_builder):
        """``projectives[z] = (Rep, generator column)``;
        ``injectives[z] = (Rep, evaluation row)``; ``simples[z] = Rep``.
        ``op_builder()`` must return (opposite category, vertex_map, arrow_map).
        """
        self.quiver = quiver
        self.proj = {z: p for z, (p, _) in projectives.items()}
        self.gen = {z: g for z, (_, g) in projectives.items()}
        self.inj = {z: i for z, (i, _) in injectives.items()}
        self.inj_eval = {z: e for z, (_, e) in injectives.items()}
        self.simple = dict(simples)
        self._op_builder = op_builder
        self._op = None
        self._hom_cache = {}
        self._pres_cache = {}
        self._nak_cache = {}
        self._lam_cache = {}
        self._inj_flag_cache = {}

    # -- plumbing ----------------------------------------------------------

    def opposite(self):
        if self._op is None:
            op, vmap, amap = self._op_builder()
            inv_v = {w: v for v, w in vmap.items()}
            inv_a = {w: v for v, w in amap.items()}
            self._op = (op, vmap, amap, inv_v, inv_a)
        return self._op

    def hom(self, m: Rep, n: Rep):
        key = (m.uid, n.uid)
        if key not in self._hom_cache:
            self._hom_cache[key] = tuple(hom_basis(m, n))
        return self._hom_cache[key]

    def hom_dim(self, m: Rep, n: Rep) -> int:
        return len(self.hom(m, n))

    def yoneda_map(self, z, n: Rep, vec: RMatrix) -> RepMap:
        """The unique map P_z -> n sending the generator to ``vec``."""
        basis = self.hom(self.proj[z], n)
        assert len(basis) == n.dims[z], "projective hom dimension mismatch"
        cols = [(b.mats[z] @ self.gen[z]).column_at(0) for b in basis]
        coeffs = coordinates_in_span(cols, vec.column_at(0))
        assert coeffs is not None, "generator image not realizable"
        out = reps.zero_map(self.proj[z], n)
        for c, b in zip(coeffs, basis):
            if c != 0:
                out = out.add(b.scale(c))
        return out

    def lam(self, arrow_name: str) -> RepMap:
        """Left multiplication P_z -> P_w along the arrow w -> z."""
        if arrow_name not in self._lam_cache:
            a = self.quiver.arrow_by_name[arrow_name]
            w, z = a.source, a.target
            vec = self.proj[w].mats[arrow_name] @ self.gen[w]
            self._lam_cache[arrow_name] = self.yoneda_map(z, self.proj[w], vec)
        return self._lam_cache[arrow_name]

    # -- radical / socle / top ----------------------------------------------

    def radical(self, m: Rep):
        bases = {}
        for v in self.quiver.vertices:
            incoming = [m.mats[a.name] for a in self.quiver.arrows_into[v]]
            if not incoming:
                bases[v] = RMatrix.zeros(m.dims[v], 0)
                continue
            stacked = RMatrix.hstack(incoming)
            cols = []
            current = RMatrix.zeros(m.dims[v], 0)
            for j in range(stacked.cols):
                cand = RMatrix.hstack([current, RMatrix.column(stacked.column_at(j))])
                if rank(cand) > current.cols:
                    current = cand
            bases[v] = current
        return reps.sub_from_subspaces(m, bases)

    def socle(self, m: Rep):
        from .linalg import nullspace_basis

        bases = {}
        for v in self.quiver.vertices:
            outgoing = [m.mats[a.name] for a in self.quiver.arrows_from[v]]
            if not outgoing:
                bases[v] = RMatrix.identity(m.dims[v])
                continue
            stacked = RMatrix.vstack(outgoing)
            bases[v] = RMatrix.from_columns(nullspace_basis(stacked), m.dims[v])
        return reps.sub_from_subspaces(m, bases)

    def top(self, m: Rep):
        _, incl = self.radical(m)
        return cokernel(incl)

    # -- covers and envelopes -------------------------------------------------

    def _complement_columns(self, sub: RMatrix):
        """Standard basis vectors completing the column span of ``sub``."""
        d = sub.rows
        chosen = []
        current = sub
        base_rank = rank(sub)
        for i in range(d):
            e = RMatrix.column([1 if k == i else 0 for k in range(d)])
            cand = RMatrix.hstack([current, e])
            if rank(cand) > base_rank + len(chosen):
                chosen.append(e)
                current = cand
        return chosen

    def cover(self, m: Rep) -> CoverData:
        rad_bases = {}
        for v in self.quiver.vertices:
            incoming = [m.mats[a.name] for a in self.quiver.arrows_into[v]]
            if incoming:
                stacked = RMatrix.hstack(incoming)
            else:
                stacked = RMatrix.zeros(m.dims[v], 0)
            rad_bases[v] = stacked
        parts = []
        for z in self.quiver.vertices:
            for e in self._complement_columns(rad_bases[z]):
                parts.append((z, e))
        if not parts:
            p0 = reps.zero_rep(self.quiver)
            q = reps.zero_map(p0, m)
            assert m.is_zero(), "nonzero module with zero top"
            return CoverData([], p0, [], [], q)
        summands = [self.proj[z] for z, _ in parts]
        p0, injections, projections = direct_sum(summands)
        part_maps = [self.yoneda_map(z, m, vec) for z, vec in parts]
        mats = {
            v: RMatrix.hstack([pm.mats[v] for pm in part_maps])
            for v in self.quiver.vertices
        }
        q = RepMap(p0, m, mats, check=False)
        assert q.is_surjective(), "projective cover not surjective"
        return CoverData(parts, p0, injections, projections, q)

    def presentation(self, m: Rep) -> Presentation:
        if m.uid not in self._pres_cache:
            cover0 = self.cover(m)
            omega, incl = kernel(cover0.q)
            cover1 = None if omega.is_zero() else self.cover(omega)
            self._pres_cache[m.uid] = Presentation(cover0, omega, incl, cover1)
        return self._pres_cache[m.uid]

    def is_projective(self, m: Rep) -> bool:
        return self.presentation(m).omega.is_zero()

    def is_injective(self, m: Rep) -> bool:
        if m.uid not in self._inj_flag_cache:
            op, vmap, amap, _, _ = self.opposite()
            dm = reps.dualize(m, op.quiver, vmap, amap)
            self._inj_flag_cache[m.uid] = op.is_projective(dm)
        return self._inj_flag_cache[m.uid]

    def syzygy(self, m: Rep):
        pres = self.presentation(m)
        return pres.omega, pres.incl

    def envelope(self, m: Rep):
        """Injective envelope (parts, I0, j: m -> I0)."""
        soc_parts = []  # (z, functional row on m_z)
        for z in self.quiver.vertices:
            outgoing = [m.mats[a.name] for a in self.quiver.arrows_from[z]]
            if outgoing:
                from .linalg import nullspace_basis as _nb

                soc_basis = RMatrix.from_columns(_nb(RMatrix.vstack(outgoing)), m.dims[z])
            else:
                soc_basis = RMatrix.identity(m.dims[z])
            s = soc_basis.cols
            if s == 0:
                continue
            completion = RMatrix.hstack([soc_basis] + self._complement_columns(soc_basis))
            inv = solve_matrix(completion, RMatrix.identity(completion.rows))
            assert inv is not None
            for jrow in range(s):
                functional = RMatrix([list(inv.data[jrow])], 1, m.dims[z])
                soc_parts.append((z, functional))
        if not soc_parts:
            assert m.is_zero(), "nonzero module with zero socle"
            i0 = reps.zero_rep(self.quiver)
            return [], i0, reps.zero_map(m, i0)
        part_maps = []
        for z, functional in soc_parts:
            basis = self.hom(m, self.inj[z])
            assert len(basis) == m.dims[z], "injective hom dimension mismatch"
            rows = [(self.inj_eval[z] @ b.mats[z]).data[0] for b in basis]
            sol = coordinates_in_span(rows, functional.data[0])
            assert sol is not None, "socle functional not realizable"
            f = reps.zero_map(m, self.inj[z])
            for c, b in zip(sol, basis):
                if c != 0:
                    f = f.add(b.scale(c))
            part_maps.append(f)
        summands = [self.inj[z] for z, _ in soc_parts]
        i0, injections, _ = direct_sum(summands)
        mats = {
            v: RMatrix.vstack([pm.mats[v] for pm in part_maps])
            for v in self.quiver.vertices
        }
        j = RepMap(m, i0, mats, check=False)
        assert j.is_injective(), "envelope map not injective"
        return [z for z, _ in soc_parts], i0, j

    def cosyzygy(self, m: Rep):
        _, _, j = self.envelope(m)
        return cokernel(j)

    # -- Ext^1 ---------------------------------------------------------------

    def _hom_from_cover(self, cover: CoverData, n: Rep):
        """Basis of Hom(P0, n), assembled blockwise from the parts."""
        out = []
        for i, (z, _) in enumerate(cover.parts):
            proj = cover.projections[i]
            for b in self.hom(self.proj[z], n):
                out.append(b.compose(proj))
        return out

    def ext1_dim(self, m: Rep, n: Rep) -> int:
        pres = self.presentation(m)
        if pres.cover1 is None:
            return 0
        hom_om_n = self.hom(pres.omega, n)
        if not hom_om_n:
            return 0
        restricted = [
            h.compose(pres.incl).flatten() for h in self._hom_from_cover(pres.cover0, n)
        ]
        mat = RMatrix([list(r) for r in restricted], len(restricted), len(restricted[0]) if restricted else 0)
        return len(hom_om_n) - rank(mat)

    def ext1_middle(self, n: Rep, m: Rep):
        """Middle term of a nonzero extension of n by m, with its maps.

        Returns (E, f: m -> E, g: E -> n) or None when Ext^1(n, m) = 0.
        """
        pres = self.presentation(n)
        if pres.cover1 is None:
            return None
        hom_om_m = self.hom(pres.omega, m)
        if not hom_om_m:
            return None
        restricted = [
            h.compose(pres.incl).flatten() for h in self._hom_from_cover(pres.cover0, m)
        ]
        width = len(hom_om_m[0].flatten())
        span_mat = RMatrix([list(r) for r in restricted], len(restricted), width)
        g0 = None
        for cand in hom_om_m:
            grown = RMatrix.vstack([span_mat, RMatrix([list(cand.flatten())], 1, width)])
            if rank(grown) > rank(span_mat):
                g0 = cand
                break
        if g0 is None:
            return None
        # pushout of (incl: omega -> P0, -g0: omega -> m)
        s, (i1, i2), _ = direct_sum([pres.cover0.p0, m])
        glue = i1.compose(pres.incl).add(i2.compose(g0.scale(-1)))
        e, proj = cokernel(glue)
        f = proj.compose(i2)
        # induced map e -> n: solve through the projection
        gmats = {}
        for v in self.quiver.vertices:
            rhs = RMatrix.hstack(
                [pres.cover0.q.mats[v], RMatrix.zeros(n.dims[v], m.dims[v])]
            )
            gmats[v] = rhs @ right_inverse(proj.mats[v]) if proj.mats[v].rows else RMatrix.zeros(n.dims[v], 0)
        g = RepMap(e, n, gmats)
        assert f.is_injective() and g.is_surjective()
        assert g.compose(f).is_zero()
        assert e.total_dim() == m.total_dim() + n.total_dim()
        return e, f, g

    # -- Nakayama and AR translates -------------------------------------------

    def nak_data(self, m: Rep):
        """D Hom(m, A) together with the chosen bases of Hom(m, P_z)."""
        if m.uid in self._nak_cache:
            return self._nak_cache[m.uid]
        bases = {z: self.hom(m, self.proj[z]) for z in self.quiver.vertices}
        flat = {z: [b.flatten() for b in bases[z]] for z in self.quiver.vertices}
        dims = {z: len(bases[z]) for z in self.quiver.vertices}
        mats = {}
        for a in self.quiver.arrows:
            w, z = a.source, a.target
            lam = self.lam(a.name)
            cols = []
            for b in bases[z]:
                comp = lam.compose(b)
                coords = coordinates_in_span(flat[w], comp.flatten()) if flat[w] else ()
                assert coords is not None, "postcomposition left the hom span"
                cols.append(coords)
            post = RMatrix.from_columns(cols, dims[w]) if cols else RMatrix.zeros(dims[w], 0)
            mats[a.name] = post.transpose()
        nu = Rep(self.quiver, dims, mats)
        data = (nu, bases, flat)
        self._nak_cache[m.uid] = data
        return data

    def nakayama(self, m: Rep) -> Rep:
        return self.nak_data(m)[0]

    def nakayama_map(self, f: RepMap) -> RepMap:
        """Functorial action of D Hom(-, A) on a morphism."""
        nu_m, _, flat_m = self.nak_data(f.source)
        nu_n, bases_n, _ = self.nak_data(f.target)
        mats = {}
        for z in self.quiver.vertices:
            cols = []
            for b in bases_n[z]:
                comp = b.compose(f)
                coords = (
                    coordinates_in_span(flat_m[z], comp.flatten())
                    if flat_m[z]
                    else ()
                )
                assert coords is not None
                cols.append(coords)
            pre = (
                RMatrix.from_columns(cols, nu_m.dims[z])
                if cols
                else RMatrix.zeros(nu_m.dims[z], 0)
            )
            mats[z] = pre.transpose()
        return RepMap(nu_m, nu_n, mats, check=False)

    def _nak_of_parts(self, parts):
        """nu(P_{z1} + ... + P_{zk}) assembled blockwise."""
        summands = [self.nak_data(self.proj[z])[0] for z, _ in parts]
        if not summands:
            return reps.zero_rep(self.quiver)
        total, _, _ = direct_sum(summands)
        return total

    def tau(self, m: Rep) -> Optional[Rep]:
        """D Tr of m via the Nakayama image of a minimal presentation.

        Returns None when m is projective.
        """
        pres = self.presentation(m)
        if pres.cover1 is None:
            return None
        f1 = pres.f1
        parts0, parts1 = pres.cover0.parts, pres.cover1.parts
        nu1 = self._nak_of_parts(parts1)
        nu0 = self._nak_of_parts(parts0)
        # component maps of f1 between the summands
        comps = {}
        for j in range(len(parts1)):
            fj = f1.compose(pres.cover1.injections[j])
            for i in range(len(parts0)):
                comps[(j, i)] = pres.cover0.projections[i].compose(fj)
        mats = {}
        for z in self.quiver.vertices:
            col_groups = []
            n_rows_per_j = [len(self.nak_data(self.proj[w])[1][z]) for w, _ in parts1]
            for i, (zi, _) in enumerate(parts0):
                basis_i = self.nak_data(self.proj[zi])[1][z]
                for b in basis_i:
                    col = []
                    for j, (wj, _) in enumerate(parts1):
                        flat_j = self.nak_data(self.proj[wj])[2][z]
                        comp = b.compose(comps[(j, i)])
                        coords = (
                            coordinates_in_span(flat_j, comp.flatten())
                            if flat_j
                            else ()
                        )
                        assert coords is not None
                        col.extend(coords)
                    col_groups.append(tuple(col))
            pre = RMatrix.from_columns(col_groups, sum(n_rows_per_j))
            mats[z] = pre.transpose()
        nu_f1 = RepMap(nu1, nu0, mats, check=False)
        t, _ = kernel(nu_f1)
        assert not t.is_zero(), "tau of a non-projective came out zero"
        return t

    def tau_inv(self, m: Rep) -> Optional[Rep]:
        """Tr D of m by duality through the opposite category; None if injective."""
        op, vmap, amap, inv_v, inv_a = self.opposite()
        dm = reps.dualize(m, op.quiver, vmap, amap)
        t = op.tau(dm)
        if t is None:
            return None
        return reps.dualize(t, self.quiver, inv_v, inv_a)

    def pd(self, m: Rep, cap: int = 64) -> int:
        k = 0
        cur = m
        while True:
            pres = self.presentation(cur)
            if pres.omega.is_zero():
                return k
            cur = pres.omega
            k += 1
            if k > cap:
                raise CatalogError("projective resolution exceeded the cap")

    # -- knitting ----------------------------------------------------------------

    def knit(self, cap: int = 10000) -> ARCatalog:
        entries = [self.proj[z] for z in self.quiver.vertices]
        tau_inv_of = {}
        tau_of = {}
        i = 0
        while i < len(entries):
            m = entries[i]
            if not self.is_injective(m):
                n = self.tau_inv(m)
                assert n is not None
                j = None
                for k, e in enumerate(entries):
                    if e.dim_vector() == n.dim_vector() and reps.is_isomorphic(
                        n, e, assume_indecomposable=True
                    ):
                        j = k
                        break
                if j is None:
                    entries.append(n)
                    j = len(entries) - 1
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
        injective = tuple(self.is_injective(e) for e in entries)
        catalog = ARCatalog(
            self,
            tuple(entries),
            projective,
            injective,
            tau_inv_of,
            tau_of,
        )
        self._fill_ar_structure(catalog)
        return catalog

    def try_decompose(self, e: Rep, candidates):
        """Peel candidate indecomposables off e; returns (mults, residual)."""
        result = []
        current = e
        for idx, c in enumerate(candidates):
            if current.is_zero():
                break
            if c.total_dim() > current.total_dim():
                continue
            mult = 0
            while True:
                if any(
                    c.dims[v] > current.dims[v] for v in self.quiver.vertices
                ):
                    break
                pair = reps.split_pair(c, current)
                if pair is None:
                    break
                f, _ = pair
                current, _ = cokernel(f)
                mult += 1
            if mult:
                result.append((idx, mult))
        return result, current

    def decompose(self, e: Rep, catalog: ARCatalog):
        """Multiplicities of catalog entries in e; e must decompose fully."""
        result, current = self.try_decompose(e, catalog.entries)
        if not current.is_zero():
            raise CatalogError("module has a summand outside the catalog")
        return result

    def _fill_ar_structure(self, catalog: ARCatalog) -> None:
        arrows = []
        for idx, n in enumerate(catalog.entries):
            if catalog.projective[idx]:
                rad, _ = self.radical(n)
                if rad.is_zero():
                    continue
                for sidx, mult in self.decompose(rad, catalog):
                    arrows.append((sidx, idx, mult))
                continue
            left_idx = catalog.tau_of[idx]
            left = catalog.entries[left_idx]
            assert self.ext1_dim(n, left) == 1, "almost split extension not unique"
            e, f, g = self.ext1_middle(n, left)
            middle = tuple(self.decompose(e, catalog))
            for sidx, mult in middle:
                arrows.append((sidx, idx, mult))
            catalog.sequences[idx] = ARSequence(left_idx, idx, middle, f, g, e)
        catalog.arrows = tuple(arrows)
