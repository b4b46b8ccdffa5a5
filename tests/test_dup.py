import subprocess
import sys

import pytest

from dupcat import dup, modcat, session
from dupcat.dup import (
    dim_vectors,
    dup_category,
    embed_A,
    junction_composite_pattern,
    knit_ind_dup,
    proj_primed,
    standard_dup_modules,
)
from dupcat.errors import CapExceededError, CatalogError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.hereditary import (
    injective_rep,
    knit_ind_A,
    path_category,
    projective_rep,
    simple_rep,
)
from dupcat.leftpart import left_part_catalog
from dupcat.linalg import RMatrix
from dupcat.quiver import Quiver, prime
from dupcat.reps import is_isomorphic, sum_rep
from dupcat.verify import run_all_checks
import oracles
from oracles import ext1_by_bases, hom_dim_by_rank, triple, triple_to_rep


def test_standard_dup_dimensions_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    p1p = std.projective_primed["1"]
    assert dim_vectors(p1p)[0] == (1, 1)  # X = I_1
    assert dim_vectors(p1p)[1] == (1, 0)  # Y = P_1
    p2 = std.projective["2"]
    assert not any(dim_vectors(p2)[1])
    # triple model soundness: dims of P_x' match I_x on the base and P_x primed
    for quiver in (q, d4_subspace(), a_n(3, "zigzag")):
        for x in quiver.vertices:
            pp = proj_primed(quiver, x)
            assert dim_vectors(pp)[0] == injective_rep(quiver, x).dim_vector()
            assert dim_vectors(pp)[1] == projective_rep(quiver, x).dim_vector()


def test_dup_a1_is_a2_path_algebra():
    q = a_n(1)
    p = proj_primed(q, "1")
    assert p.total_dim() == 2
    r = p
    assert r.dims["1"] == 1 and r.dims["1'"] == 1
    # the unique connecting arrow acts invertibly on the projective-injective
    conn = [a for a in r.quiver.arrows if a.source == "1'"][0]
    assert not r.mats[conn.name].is_zero()


def test_hom_dims_dup_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    cat = dup_category(q)
    p1 = embed_A(projective_rep(q, "1"))
    pp1 = std.projective_primed["1"]
    assert hom_dim_by_rank(p1, pp1) == 1
    assert hom_dim_by_rank(std.simple_primed["1"], p1) == 0
    assert hom_dim_by_rank(pp1, pp1) == 1


def test_embedding_fullness_and_tau_commutation():
    for q in (a_n(2), a_n(3)):
        cat_a, cat = knit_ind_A(q), dup_category(q)
        for m in cat_a.entries:
            for n in cat_a.entries:
                assert hom_dim_by_rank(m, n) == hom_dim_by_rank(
                    embed_A(m), embed_A(n)
                )
    q = a_n(2)
    s2 = simple_rep(q, "2")
    tau = dup_category(q).tau(embed_A(s2))
    assert is_isomorphic(tau, embed_A(projective_rep(q, "1")))


def test_structure_of_proj_primed():
    q = a_n(2)
    std = standard_dup_modules(q)
    cat = dup_category(q)
    pp1 = std.projective_primed["1"]
    # radical of P_1' is the embedded I_1 = P_2
    assert is_isomorphic(cat.radical(pp1)[0], embed_A(projective_rep(q, "2")))
    assert is_isomorphic(cat.top(pp1)[0], std.simple_primed["1"])
    assert is_isomorphic(cat.socle(pp1)[0], std.simple["1"])
    assert is_isomorphic(cat.socle(std.projective_primed["2"])[0], std.simple["2"])
    # simples are their own top and socle
    sbar = std.simple["2"]
    assert is_isomorphic(cat.top(sbar)[0], sbar) and is_isomorphic(cat.socle(sbar)[0], sbar)


def test_covers_and_envelopes_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    cat = dup_category(q)
    _, envelope, _ = cat.envelope(embed_A(projective_rep(q, "1")))
    assert is_isomorphic(envelope, std.projective_primed["1"])
    cover = cat.cover(std.simple_primed["1"])
    assert is_isomorphic(cover.p0, std.projective_primed["1"])
    cover = cat.cover(std.projective_primed["2"])
    assert is_isomorphic(cover.p0, std.projective_primed["2"])


def _syzygy(cat, m):
    pres = oracles.presentation(cat, m)
    return pres.omega, pres.incl


def test_syzygies_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    cat = dup_category(q)
    z1 = cat.cosyzygy(embed_A(projective_rep(q, "1")))[0]
    assert dim_vectors(z1)[0] == (0, 1)
    assert dim_vectors(z1)[1] == (1, 0)
    s1p, _ = cat.cosyzygy(embed_A(projective_rep(q, "2")))
    assert is_isomorphic(s1p, std.simple_primed["1"])
    om, _ = _syzygy(cat, std.projective["1"])
    assert om.is_zero()


def test_tau_dup_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    cat = dup_category(q)
    i1 = embed_A(injective_rep(q, "1"))
    z1 = cat.tau_inv(i1)
    assert dim_vectors(z1) == ((0, 1), (1, 0))
    # inverse pair and agreement with the cosyzygy route
    back = cat.tau(z1)
    assert is_isomorphic(back, i1)
    om_inv, _ = cat.cosyzygy(embed_A(projective_rep(q, "1")))
    assert is_isomorphic(z1, om_inv)
    # projective-injectives have neither translate
    pp1 = std.projective_primed["1"]
    assert cat.tau(pp1) is None and cat.tau_inv(pp1) is None


def test_ext_dup_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    cat = dup_category(q)
    s2 = embed_A(simple_rep(q, "2"))
    p1 = embed_A(projective_rep(q, "1"))
    assert ext1_by_bases(cat, s2, p1) == 1
    z1, _ = cat.cosyzygy(p1)
    assert ext1_by_bases(cat, s2, z1) == 0
    for x in q.vertices:
        assert ext1_by_bases(cat, std.projective_primed[x], s2) == 0


def test_pd_dup_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    cat = dup_category(q)
    assert cat.pd(std.projective["1"]) == 0
    assert cat.pd(std.projective_primed["2"]) == 0
    assert cat.pd(std.simple_primed["1"]) == 1
    assert cat.pd(std.simple_primed["2"]) == 2


def test_pd_cap_is_the_dimension_of_the_duplicated_algebra():
    """The dimension of the duplicated algebra, the sum of its projectives'
    dimensions, is three copies of dim A."""
    for q, dim_dup in ((a_n(3, "zigzag"), 15), (d4_subspace(), 21)):
        total = sum(p.total_dim() for p in dup_category(q).proj.values())
        dim_a = sum(projective_rep(q, x).total_dim() for x in q.vertices)
        assert total == 3 * dim_a == dim_dup


def test_knit_dup_counts():
    assert len(knit_ind_dup(a_n(1)).entries) == 3
    cat = knit_ind_dup(a_n(2))
    assert len(cat.entries) == 9
    assert sum(cat.proj_injective) == 2
    assert sum(cat.in_ind_A) == 3
    # partition: |ind A| embedded + |ind A'| primed-only + rest
    primed_only = sum(1 for m in cat.entries if not any(dim_vectors(m)[0]))
    glued = len(cat.entries) - sum(cat.in_ind_A) - primed_only
    assert (sum(cat.in_ind_A), primed_only, glued) == (3, 3, 3)
    # of the glued ones, 2 are the projective-injectives, 1 is new
    assert glued - sum(cat.proj_injective) == 1


def test_knit_dup_d4():
    cat = knit_ind_dup(d4_subspace())
    assert len(cat.entries) == 36
    assert sum(cat.proj_injective) == 4
    assert sum(cat.in_ind_A) == 12


def test_junction_pattern_d4():
    pat = junction_composite_pattern(d4_subspace())
    assert pat.zero_count == 6
    assert pat.commuting_count == 3
    assert pat.family_sizes == (3,)


def _path_action_vanishes(q, names, start):
    """Does the path act by zero on the regular module of the dup algebra?"""
    cat = dup_category(q)
    return all(cat.proj[z].act_path(tuple(names), start).is_zero() for z in cat.quiver.vertices)


def test_a2_long_path_vanishes():
    q = a_n(2)
    # the unique length-3 path from 2' through 1' and 2 down to 1 acts by zero
    assert _path_action_vanishes(q, ("a2'", "D[a2]", "a2"), prime("2"))
    assert not _path_action_vanishes(q, ("a2'", "D[a2]"), prime("2"))
    assert not _path_action_vanishes(q, ("D[a2]", "a2"), prime("1"))


def _assert_triple_rebuilds(m, q):
    """The oracle's triple_to_rep(X, Y, theta) reproduces every arrow
    action of m."""
    again = triple_to_rep(*triple(m, q))
    assert again.dims == m.dims
    for a in m.quiver.arrows:
        assert again.mats[a.name].data == m.mats[a.name].data, a.name


def test_rep_to_triple_roundtrip():
    """The standard modules and every knitted D4 entry are modules in the
    triple model too: the oracle's theta exists, is unique, and rebuilds
    the connecting-arrow actions entry by entry."""
    q = a_n(2)
    std = standard_dup_modules(q)
    for m in [std.projective_primed["1"], std.projective_primed["2"],
              std.projective["2"], std.injective_primed["1"]]:
        _assert_triple_rebuilds(m, q)
    # P_x' is (nu P_x, P_x, id)
    for x in q.vertices:
        th = triple(std.projective_primed[x], q)[2]
        assert all(th.mats[v] == RMatrix.identity(th.mats[v].rows) for v in q.vertices)
    q = d4_subspace()
    cat = knit_ind_dup(q)
    assert len(cat.entries) == 36
    for m in cat.entries:
        _assert_triple_rebuilds(m, q)


def test_embed_A_is_shared_per_module():
    """One embedded module per A-module: the fidelity check's embeds are
    the left-part members, with their caches."""
    q = d4_subspace()
    x = projective_rep(q, "2")
    assert embed_A(x) is embed_A(x)
    assert embed_A(projective_rep(q, "2")) is not embed_A(x)
    entries = knit_ind_A(q).entries
    members = left_part_catalog(q).members
    assert all(embed_A(e) is m for e, m in zip(entries, members))


def test_exact_isomorphism_when_one_side_is_indecomposable():
    """S_1 + S_2 and the indecomposable of dimension vector (1, 1) are not
    isomorphic by the split_pair route, whichever side comes first."""
    q = a_n(2)
    summed = sum_rep([simple_rep(q, "1"), simple_rep(q, "2")])
    p2 = projective_rep(q, "2")
    assert summed.dim_vector() == p2.dim_vector()
    for m, n in ((summed, p2), (p2, summed)):
        assert not is_isomorphic(embed_A(m), embed_A(n))
    assert is_isomorphic(embed_A(p2), embed_A(injective_rep(q, "1")))


_BAD_DUP_PROJECTIVE = """
from dupcat import dup, reps
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n

inner = dup.build_standard_dup_modules


def doubled(q):
    std = inner(q)
    twice = {x: reps.sum_rep([m] * 2) for x, m in std.projective.items()}
    return std._replace(projective=twice)


dup.build_standard_dup_modules = doubled
try:
    dup.dup_category(a_n(2))
except CatalogError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_dup_category_rejects_a_projective_without_simple_top(monkeypatch, src_env):
    """A standard projective 2-dimensional at its vertex raises CatalogError,
    also under python -O."""
    inner = dup.build_standard_dup_modules

    def doubled(q):
        std = inner(q)
        twice = {x: sum_rep([m] * 2) for x, m in std.projective.items()}
        return std._replace(projective=twice)

    monkeypatch.setattr(session, "_sessions", {})
    monkeypatch.setattr(dup, "build_standard_dup_modules", doubled)
    with pytest.raises(CatalogError, match="1-dimensional"):
        dup_category(a_n(2))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_DUP_PROJECTIVE],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# -- the knit of the duplicated algebra around the two copies of ind A ---------


def _d5():
    """D5 (the chain 1-2-3-4 with 5 attached to 3) oriented 2>1, 3>2, 3>4, 5>3."""
    return Quiver(
        ["1", "2", "3", "4", "5"],
        [("a1", "2", "1"), ("a2", "3", "2"), ("a3", "3", "4"), ("a4", "5", "3")],
    )


def _knitted(q, monkeypatch, table: bool):
    """The duplicated algebra's catalog, knitted in a fresh session, with or
    without its table of copies: entries by content, tau^{-1} links, arrows
    and the middle terms of the sequences."""
    monkeypatch.setattr(session, "_sessions", {})
    cat = dup_category(q)
    if not table:
        monkeypatch.setattr(cat, "_copies", None)
    ar = cat.knit()
    contents = [(e.dim_vector(), tuple(e.mats[a.name] for a in e.quiver.arrows)) for e in ar.entries]
    middles = {idx: seq.middle for idx, seq in ar.sequences.items()}
    return contents, ar.tau_inv_of, ar.arrows, middles


@pytest.mark.parametrize(
    "quiver", [lambda: a_n(3, "zigzag"), d4_subspace, _d5], ids=["A3-zigzag", "D4", "D5"]
)
def test_knit_is_the_same_without_the_table_of_copies(monkeypatch, quiver):
    """Taking tau^{-1} on the two copies of ind A from the table changes no
    entry, tau link, arrow or middle term of the catalog."""
    assert _knitted(quiver(), monkeypatch, True) == _knitted(quiver(), monkeypatch, False)


_TAMPERED_COPY = """
from dupcat import dup
from dupcat.errors import CatalogError
from dupcat.fixtures import d4_subspace
from dupcat.hereditary import knit_ind_A
from dupcat.quiver import prime

inner = dup._copies


def tampered(q, cat, cap):
    table = inner(q, cat, cap)
    a = knit_ind_A(q, cap)
    rename = {rename}
    key = cat.content_id(dup._copy(a.entries[0], cat.quiver, rename))
    table[key] = dup._copy(a.entries[a.tau_inv_of[a.tau_inv_of[0]]], cat.quiver, rename)
    return table


dup._copies = tampered
cat = dup.dup_category(d4_subspace())
try:
    cat.knit()
except CatalogError as exc:
    message = "the cokernel of the source map of entry {left} is not entry"
    raise SystemExit(0 if message in str(exc) and cat._catalog is None else 2)
raise SystemExit(1)
"""


@pytest.mark.parametrize(
    "rename, rename_source", [(str, "str"), (prime, "prime")], ids=["unprimed", "primed"]
)
def test_wrong_copy_in_the_table_fails_its_sequence(monkeypatch, src_env, rename, rename_source):
    """With the table claiming tau^{-1} of the copy of P_1 of D4 to be the
    copy of tau_A^{-2} P_1, the almost split sequence ending at that entry
    fails its certificate: the knit raises CatalogError naming the copy of
    P_1, also under python -O, and keeps no catalog."""
    monkeypatch.setattr(session, "_sessions", {})
    q = d4_subspace()
    a = knit_ind_A(q)
    clean = dup_category(q).knit()
    left = clean.find(dup._copy(a.entries[0], clean.category.quiver, rename))
    monkeypatch.setattr(session, "_sessions", {})
    inner = dup._copies

    def tampered(q, cat, cap):
        table = inner(q, cat, cap)
        key = cat.content_id(dup._copy(a.entries[0], cat.quiver, rename))
        table[key] = dup._copy(a.entries[a.tau_inv_of[a.tau_inv_of[0]]], cat.quiver, rename)
        return table

    monkeypatch.setattr(dup, "_copies", tampered)
    cat = dup_category(q)
    with pytest.raises(CatalogError, match=f"the cokernel of the source map of entry {left} is not entry"):
        cat.knit()
    assert cat._catalog is None
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPERED_COPY.format(rename=rename_source, left=left)],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("quiver, expected", [(d4_subspace, 20), (_d5, 30)], ids=["D4", "D5"])
def test_knit_asks_nakayama_only_off_the_copies(monkeypatch, quiver, expected):
    """In one cold run_all_checks, the knit of the duplicated algebra asks
    the Nakayama route (``tau_inv``) for |ind A| + 2n entries: the n entries
    injective in each copy of ind A and the |ind A| entries between the
    copies.  The other 2(|ind A| - n) take tau^{-1} from the table."""
    monkeypatch.setattr(session, "_sessions", {})
    q = quiver()
    inner_knit, inner_tau_inv = modcat.ModuleCategory.knit, modcat.ModuleCategory.tau_inv
    knitting, asked = [], []

    def knit(self, cap=10000):
        knitting.append(self is dup_category(q))
        try:
            return inner_knit(self, cap)
        finally:
            knitting.pop()

    def tau_inv(self, m):
        if knitting and knitting[-1] and self is dup_category(q):
            asked.append(m)
        return inner_tau_inv(self, m)

    monkeypatch.setattr(modcat.ModuleCategory, "knit", knit)
    monkeypatch.setattr(modcat.ModuleCategory, "tau_inv", tau_inv)
    assert all(r.passed for r in run_all_checks(q))
    assert len(asked) == expected


@pytest.mark.parametrize(
    "quiver, cap", [(kronecker, 8), (d4_subspace, 10), (d4_subspace, 20)], ids=["Kronecker", "D4-10", "D4-20"]
)
def test_knit_with_the_table_keeps_the_cap(monkeypatch, quiver, cap):
    """The knit of ind A behind the table of copies runs under the caller's
    cap: past it, on the Kronecker quiver or below |ind A| = 12 on D4, the
    knit of the duplicated algebra raises the same CapExceededError as
    past |ind A-bar| = 36, and keeps no catalog."""
    monkeypatch.setattr(session, "_sessions", {})
    cat = dup_category(quiver())
    with pytest.raises(CapExceededError, match=f"more than {cap} indecomposables"):
        knit_ind_dup(quiver(), cap)
    assert cat._catalog is None
