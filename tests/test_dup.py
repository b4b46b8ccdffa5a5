from dupcat.dup import (
    covers_and_envelopes,
    embed_A,
    ext1_dup,
    hom_dim_dup,
    is_isomorphic_dup,
    junction_composite_pattern,
    knit_ind_dup,
    path_action_vanishes,
    pd_dup,
    proj_primed,
    rep_to_triple,
    standard_dup_modules,
    structure,
    syzygy_pair,
    tau_dup_pair,
    triple_to_rep,
)
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import (
    INJECTIVE,
    PROJECTIVE,
    hom_dim,
    injective_rep,
    knit_ind_A,
    projective_rep,
    simple_rep,
)
from dupcat.quiver import prime


def test_standard_dup_dimensions_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    p1p = std.projective_primed["1"]
    assert p1p.x_part.dim_vector() == (1, 1)  # X = I_1
    assert p1p.y_part.dim_vector() == (1, 0)  # Y = P_1
    p2 = std.projective["2"]
    assert p2.y_part.is_zero()
    # triple model soundness: dims of P_x' match I_x on the base and P_x primed
    for quiver in (q, d4_subspace(), a_n(3, "zigzag")):
        for x in quiver.vertices:
            pp = proj_primed(quiver, x)
            assert pp.x_part.dim_vector() == injective_rep(quiver, x).dim_vector()
            assert pp.y_part.dim_vector() == projective_rep(quiver, x).dim_vector()


def test_dup_a1_is_a2_path_algebra():
    q = a_n(1)
    p = proj_primed(q, "1")
    assert p.total_dim() == 2
    r = p.rep()
    assert r.dims["1"] == 1 and r.dims["1'"] == 1
    # the unique connecting arrow acts invertibly on the projective-injective
    conn = [a for a in r.quiver.arrows if a.source == "1'"][0]
    assert not r.mats[conn.name].is_zero()


def test_hom_dims_dup_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    p1 = embed_A(projective_rep(q, "1"))
    assert hom_dim_dup(p1, std.projective_primed["1"]) == 1
    assert hom_dim_dup(std.simple_primed["1"], p1) == 0
    assert hom_dim_dup(std.projective_primed["1"], std.projective_primed["1"]) == 1


def test_embedding_fullness_and_tau_commutation():
    for q in (a_n(2), a_n(3)):
        cat_a = knit_ind_A(q)
        for m in cat_a.entries:
            for n in cat_a.entries:
                assert hom_dim(m, n) == hom_dim_dup(embed_A(m), embed_A(n))
    q = a_n(2)
    s2 = simple_rep(q, "2")
    tp = tau_dup_pair(embed_A(s2))
    assert is_isomorphic_dup(tp.tau, embed_A(projective_rep(q, "1")))


def test_structure_of_proj_primed():
    q = a_n(2)
    std = standard_dup_modules(q)
    st = structure(std.projective_primed["1"])
    # radical of P_1' is the embedded I_1 = P_2
    assert is_isomorphic_dup(st.radical, embed_A(projective_rep(q, "2")))
    assert is_isomorphic_dup(st.top, std.simple_primed["1"])
    assert is_isomorphic_dup(st.socle, std.simple["1"])
    st2 = structure(std.projective_primed["2"])
    assert is_isomorphic_dup(st2.socle, std.simple["2"])
    # simples are their own top and socle
    sbar = std.simple["2"]
    sst = structure(sbar)
    assert is_isomorphic_dup(sst.top, sbar) and is_isomorphic_dup(sst.socle, sbar)


def test_covers_and_envelopes_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    ce = covers_and_envelopes(embed_A(projective_rep(q, "1")))
    assert is_isomorphic_dup(ce.envelope, std.projective_primed["1"])
    ce2 = covers_and_envelopes(std.simple_primed["1"])
    assert is_isomorphic_dup(ce2.cover, std.projective_primed["1"])
    ce3 = covers_and_envelopes(std.projective_primed["2"])
    assert is_isomorphic_dup(ce3.cover, std.projective_primed["2"])


def test_syzygies_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    z1 = syzygy_pair(embed_A(projective_rep(q, "1"))).cosyzygy
    assert z1.x_part.dim_vector() == (0, 1)
    assert z1.y_part.dim_vector() == (1, 0)
    s1p = syzygy_pair(embed_A(projective_rep(q, "2"))).cosyzygy
    assert is_isomorphic_dup(s1p, std.simple_primed["1"])
    om = syzygy_pair(std.projective["1"]).omega
    assert om.is_zero()


def test_tau_dup_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    i1 = embed_A(injective_rep(q, "1"))
    z1 = tau_dup_pair(i1).tau_inv
    assert z1.x_part.dim_vector() == (0, 1) and z1.y_part.dim_vector() == (1, 0)
    # inverse pair and agreement with the cosyzygy route
    back = tau_dup_pair(z1).tau
    assert is_isomorphic_dup(back, i1)
    om_inv = syzygy_pair(embed_A(projective_rep(q, "1"))).cosyzygy
    assert is_isomorphic_dup(z1, om_inv)
    # projective-injectives flag out on both sides
    tp = tau_dup_pair(std.projective_primed["1"])
    assert tp.tau is PROJECTIVE and tp.tau_inv is INJECTIVE


def test_ext_dup_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    s2 = embed_A(simple_rep(q, "2"))
    p1 = embed_A(projective_rep(q, "1"))
    assert ext1_dup(s2, p1) == 1
    z1 = syzygy_pair(p1).cosyzygy
    assert ext1_dup(s2, z1) == 0
    for x in q.vertices:
        assert ext1_dup(std.projective_primed[x], s2) == 0


def test_pd_dup_a2():
    q = a_n(2)
    std = standard_dup_modules(q)
    assert pd_dup(std.projective["1"]) == 0
    assert pd_dup(std.projective_primed["2"]) == 0
    assert pd_dup(std.simple_primed["1"]) == 1
    assert pd_dup(std.simple_primed["2"]) == 2


def test_knit_dup_counts():
    assert len(knit_ind_dup(a_n(1)).entries) == 3
    cat = knit_ind_dup(a_n(2))
    assert len(cat.entries) == 9
    assert sum(cat.proj_injective) == 2
    assert sum(cat.in_ind_A) == 3
    # partition: |ind A| embedded + |ind A'| primed-only + rest
    primed_only = sum(1 for m in cat.modules if m.x_part.is_zero())
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


def test_a2_long_path_vanishes():
    q = a_n(2)
    # the unique length-3 path from 2' through 1' and 2 down to 1 acts by zero
    assert path_action_vanishes(q, ("a2'", "D[a2]", "a2"), prime("2"))
    assert not path_action_vanishes(q, ("a2'", "D[a2]"), prime("2"))
    assert not path_action_vanishes(q, ("D[a2]", "a2"), prime("1"))


def _assert_triple_rebuilds(m):
    """triple_to_rep(X, Y, theta) reproduces every arrow action of m."""
    again = triple_to_rep(m.x_part, m.y_part, m.theta)
    rep = m.rep()
    assert again.dims == rep.dims
    for a in rep.quiver.arrows:
        assert again.mats[a.name].data == rep.mats[a.name].data, a.name


def test_rep_to_triple_roundtrip():
    q = a_n(2)
    std = standard_dup_modules(q)
    for m in [std.projective_primed["1"], std.projective_primed["2"],
              std.projective["2"], std.injective_primed["1"]]:
        again = rep_to_triple(m.rep(), q)
        assert is_isomorphic_dup(m, again)
        assert again.rep().dim_vector() == m.rep().dim_vector()
        _assert_triple_rebuilds(again)
    # every knitted D4 module is a view on its catalog entry, and its derived
    # triple rebuilds the connecting-arrow actions entry by entry
    cat = knit_ind_dup(d4_subspace())
    assert len(cat.modules) == 36
    for m, entry in zip(cat.modules, cat.catalog.entries):
        assert m.rep() is entry
        _assert_triple_rebuilds(m)
