"""The one-shot verification pipeline.

Each check machine-verifies one structural statement about the duplicated
algebra and its left part, through two independent computation routes
wherever possible.  All checks return a Report; the driver aggregates them.
"""

from __future__ import annotations

from .errors import CatalogError, NotDynkinError
from .quiver import Quiver, classify_dynkin, prime, sinks_and_sources
from . import reps
from .cluster import ext1_mismatches, fundamental_domain
from .dup import dim_vectors, dup_category, embed_A, knit_ind_dup, standard_dup_modules
from .hereditary import euler_form, knit_ind_A, path_category
from .modcat import DEFAULT_CAP
from .leftpart import (
    Report,
    canonical_tilting,
    left_part_catalog,
    sectional_check,
    verify_ext_injectives,
    verify_left_part_definition,
    verify_pd_criterion,
    verify_sink_reachability,
)
from .tilting import expected_count, verify_bijection


def check_embedding_fidelity(q: Quiver, cat_a, lp) -> Report:
    """The embedding of the base module category is full, exact on Ext, and
    commutes with the AR translate off the projectives.

    The base side is the Euler form of the dimension vectors: for
    indecomposables M, N of a Dynkin path algebra at most one of Hom(M, N)
    and Ext^1(M, N) is nonzero, so their dimensions are the positive and
    the negative part of <dim M, dim N>.  The duplicated side reads Hom and
    Ext^1 off the hom table of the knitted catalog and tau off its links,
    at the entries of the embedded modules (``LeftPart.ind_a``)."""
    witnesses = []
    dup_cat = knit_ind_dup(q)
    ar = dup_cat.catalog
    found = lp.ind_a
    dims = [m.dim_vector() for m in cat_a.entries]
    table = ar.hom_table
    form = euler_form(q)
    for i, k in enumerate(found):
        for j, l in enumerate(found):
            euler = form(dims[i], dims[j])
            ha, ea = max(euler, 0), max(-euler, 0)
            hd = table[k][l]
            if ha != hd:
                witnesses.append(f"hom({i},{j}): base {ha} vs duplicated {hd}")
            ed = dup_cat.ext1_dim(k, l)
            if ea != ed:
                witnesses.append(f"ext({i},{j}): base {ea} vs duplicated {ed}")
    for i, j in sorted(cat_a.tau_of.items()):
        if ar.tau_of.get(found[i]) != found[j]:
            witnesses.append(f"translate of embedded entry {i} disagrees")
    return Report("embedding-fidelity", not witnesses, witnesses)


def check_cosyzygy_tau_identity(q: Quiver) -> Report:
    """Cosyzygies of embedded projectives coincide with the translates of the
    embedded injectives; the two sides use disjoint code paths: injective
    envelopes, and the links of the knit."""
    witnesses = []
    ctx = dup_category(q)
    projectives = standard_dup_modules(q).projective
    entries = knit_ind_dup(q).entries
    for x, k in zip(q.vertices, left_part_catalog(q).cosyzygies):
        lhs, _ = ctx.cosyzygy(projectives[x])
        rhs = entries[k]  # the knit's tau^{-1} of the embedded injective at x
        # exact: the translate of an indecomposable is indecomposable
        if not ctx.iso(lhs, rhs):
            witnesses.append(
                f"vertex {x}: cosyzygy {dim_vectors(lhs)} vs translate {dim_vectors(rhs)}"
            )
    return Report("cosyzygy-translate-identity", not witnesses, witnesses)


def check_socle_quotient_sequences(q: Quiver) -> Report:
    """For every sink a the almost split sequence ending at P_a'/S_a starts
    at the embedded injective I_a and has middle term P_a' + I_a/S_a.

    It is read off the knit, which certified it exact, non-split (dim Ext^1
    = 1) and each summand of its middle term; an almost split sequence is
    determined by its end term (Assem-Simson-Skowronski vol. 1, IV.1)."""
    witnesses = []
    ctx = dup_category(q)
    base_ctx = path_category(q)
    injective_at = knit_ind_A(q).injective_at
    ind_a = left_part_catalog(q).ind_a
    sinks, _ = sinks_and_sources(q)
    for a in sinks:
        pia = ctx.proj[prime(a)]
        # I_a / S_a computed in the base category, then embedded
        incl_candidates = reps.hom_basis(base_ctx.simple[a], base_ctx.inj[a])
        if len(incl_candidates) != 1:
            raise CatalogError(
                f"sink {a}: Hom(S_a, I_a) has dimension {len(incl_candidates)}, not 1"
            )
        ia_mod_sa = embed_A(reps.cokernel(incl_candidates[0])[0])
        soc, soc_incl = ctx.socle(pia)
        if soc.total_dim() != 1 or soc.dims.get(a, 0) != 1:
            witnesses.append(f"sink {a}: socle of the projective-injective is not simple at {a}")
            continue
        catalog = knit_ind_dup(q).catalog
        seq = catalog.sequences.get(catalog.find(reps.cokernel(soc_incl)[0]))
        if seq is None:
            witnesses.append(f"sink {a}: no almost split sequence ends at the socle quotient")
            continue
        if seq.left != ind_a[injective_at[q.vertices.index(a)]]:
            witnesses.append(f"sink {a}: left term is not the embedded injective")
        middle = tuple(ctx.decompose(reps.sum_rep([pia, ia_mod_sa]), catalog))
        if seq.middle != middle:
            witnesses.append(f"sink {a}: middle term {seq.middle}, not P_a' + I_a/S_a = {middle}")
    return Report("socle-quotient-sequences", not witnesses, witnesses)


def check_fundamental_domain_counts(q: Quiver, cat_a, lp) -> Report:
    witnesses = []
    n = len(q.vertices)
    expected = len(cat_a.entries) + n
    got = len(lp.non_proj_inj)
    if got != expected:
        witnesses.append(f"non-projective-injective left part has {got} members, expected {expected}")
    size = len(fundamental_domain(q).names)
    if size != expected:
        witnesses.append(f"fundamental domain has {size} objects, expected {expected}")
    return Report("fundamental-domain-count", not witnesses, witnesses)


def check_ext_symmetry_and_cross_model(q: Quiver, lp) -> Report:
    """The Ext^1 table of the fundamental domain is symmetric, and its
    vanishing matches both-direction Ext-vanishing across the projection:
    the cluster side off the table, the duplicated side off the hom table
    of the knitted catalog (``DupCatalog.ext1_dim``), compared by the same
    function as the bijection's (:func:`dupcat.cluster.ext1_mismatches`)."""
    domain = fundamental_domain(q)
    witnesses = [
        f"asymmetric pair {domain.names[i]}, {domain.names[j]}"
        for i, row in enumerate(domain.ext1)
        for j, e in enumerate(row)
        if e != domain.ext1[j][i]
    ]
    witnesses += ext1_mismatches(q, lp.non_proj_inj)
    return Report("extension-symmetry-and-cross-model", not witnesses, witnesses)


def check_tilting_bijection(q: Quiver) -> Report:
    rep = verify_bijection(q)
    witnesses = list(rep.witnesses)
    want = expected_count(classify_dynkin(q))
    if rep.left_count != want:
        witnesses.append(f"count {rep.left_count} differs from the degree product {want}")
    return Report(
        "tilting-bijection",
        rep.matched and not witnesses,
        witnesses or [f"{rep.left_count} tilting modules on both sides"],
    )


def check_canonical_tilting(q: Quiver) -> Report:
    res = canonical_tilting(q)
    witnesses = list(res.verdict.failures)
    if len(res.summands) != 2 * len(q.vertices):
        witnesses.append(f"{len(res.summands)} summands, expected {2 * len(q.vertices)}")
    return Report("canonical-tilting", not witnesses, witnesses)


def run_all_checks(q: Quiver, cap: int = DEFAULT_CAP):
    """Run the full verification suite on a Dynkin quiver."""
    if classify_dynkin(q) is None:
        raise NotDynkinError("the verification suite requires a Dynkin quiver")
    cat_a = knit_ind_A(q, cap)
    dup_cat = knit_ind_dup(q, cap)
    lp = left_part_catalog(q)
    checks = [
        check_embedding_fidelity(q, cat_a, lp),
        verify_pd_criterion(dup_cat),
        verify_sink_reachability(dup_cat),
        sectional_check(dup_cat),
        verify_ext_injectives(lp),
        verify_left_part_definition(lp, dup_cat),
        check_cosyzygy_tau_identity(q),
        check_socle_quotient_sequences(q),
        check_fundamental_domain_counts(q, cat_a, lp),
        check_ext_symmetry_and_cross_model(q, lp),
        check_tilting_bijection(q),
        check_canonical_tilting(q),
    ]
    return checks
