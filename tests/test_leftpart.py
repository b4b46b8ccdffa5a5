import gc

import pytest

from dupcat.dup import embed_A, knit_ind_dup
from dupcat.errors import NotDynkinError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.hereditary import knit_ind_A, projective_rep, simple_rep
from dupcat.leftpart import (
    annotate_catalog,
    canonical_tilting,
    definition_left_part_indices,
    left_part_catalog,
    sectional_check,
    verify_ext_injectives,
    verify_left_part_definition,
    verify_pd_criterion,
    verify_sink_reachability,
)
from dupcat.reps import direct_sum
from oracles import rebuilt


def _sigma_catalog(q):
    """The Ext-injectives of the left part, per the structural description:
    the tau^{-1} of the embedded injectives together with the
    projective-injectives lying in the left part."""
    return left_part_catalog(q).sigma


def test_sigma_a2():
    q = a_n(2)
    sigma = _sigma_catalog(q)
    assert len(sigma) == 4
    dimsets = sorted(m.dim_vectors() for m in sigma)
    # Z1, S1', P1', P2'
    assert dimsets == [
        ((0, 0), (1, 0)),  # S1'
        ((0, 1), (1, 0)),  # Z1
        ((0, 1), (1, 1)),  # P2'
        ((1, 1), (1, 0)),  # P1'
    ]


def test_sigma_a1():
    sigma = _sigma_catalog(a_n(1))
    assert len(sigma) == 2


def test_left_part_counts():
    lpc1 = left_part_catalog(a_n(1))
    assert len(lpc1.members) == 3  # the whole module category
    lpc2 = left_part_catalog(a_n(2))
    assert len(lpc2.members) == 7
    assert len(lpc2.non_proj_inj_members()) == 5 == 3 + 2
    lpc4 = left_part_catalog(d4_subspace())
    assert len(lpc4.non_proj_inj_members()) == 16 == 12 + 4


def test_left_part_guards():
    with pytest.raises(NotDynkinError):
        left_part_catalog(kronecker())
    with pytest.raises(NotDynkinError):
        _sigma_catalog(kronecker())


def test_verify_ext_injectives_small():
    for q in (a_n(1), a_n(2)):
        report = verify_ext_injectives(left_part_catalog(q))
        assert report.passed, report.witnesses


def test_two_route_left_part_a2():
    q = a_n(2)
    lpc = left_part_catalog(q)
    cat = knit_ind_dup(q)
    report = verify_left_part_definition(lpc, cat)
    assert report.passed, report.witnesses
    assert len(definition_left_part_indices(cat)) == 7


def test_annotate_and_auxiliary_checks_a2():
    q = a_n(2)
    lpc = left_part_catalog(q)
    cat = annotate_catalog(knit_ind_dup(q), lpc)
    assert sum(cat.in_L) == 7
    assert sum(cat.in_sigma) == 4
    assert verify_pd_criterion(cat).passed
    assert verify_sink_reachability(lpc, cat).passed
    assert sectional_check(lpc, cat).passed


def test_sectional_check_leaves_no_reference_cycles():
    q = d4_subspace()
    lpc = left_part_catalog(q)
    cat = annotate_catalog(knit_ind_dup(q), lpc)
    first = sectional_check(lpc, cat)
    gc.collect()
    gc.disable()
    try:
        report = sectional_check(lpc, cat)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
    assert report.as_dict() == first.as_dict() and report.passed and report.witnesses == []


def test_sectional_check_reports_an_oriented_cycle():
    q = a_n(2)
    lpc = left_part_catalog(q)
    cat = annotate_catalog(knit_ind_dup(q), lpc)
    arrows = cat.catalog.arrows
    back = tuple((t, s, k) for s, t, k in arrows)
    cyclic = rebuilt(cat, catalog=rebuilt(cat.catalog, arrows=arrows + back))
    report = sectional_check(lpc, cyclic)
    assert not report.passed
    assert report.witnesses == ["AR quiver has an oriented cycle"]


def test_corrupted_catalog_is_detected():
    q = a_n(2)
    lpc = left_part_catalog(q)
    cat = knit_ind_dup(q)
    # drop a genuine member from the structural side by lying about sigma;
    # the catalog is shared, so the lie goes into a copy
    members = lpc.members[:-1]
    broken = rebuilt(
        lpc,
        members=members,
        proj_inj_flags=lpc.proj_inj_flags[:-1],
        ind_a_flags=lpc.ind_a_flags[:-1],
        cosyzygy_flags=lpc.cosyzygy_flags[:-1],
        sigma_indices=tuple(i for i in lpc.sigma_indices if i < len(members)),
    )
    report = verify_left_part_definition(broken, cat)
    assert not report.passed
    assert report.witnesses
    assert verify_left_part_definition(left_part_catalog(q), cat).passed


def test_canonical_tilting():
    res1 = canonical_tilting(a_n(1))
    assert len(res1.summands) == 2
    assert res1.verdict.passed, res1.verdict.failures
    res2 = canonical_tilting(a_n(2))
    assert len(res2.summands) == 4
    assert res2.v_part == ()  # both projective-injectives lie in the left part
    assert res2.verdict.passed, res2.verdict.failures


def test_lemma_embeds_and_their_tau_inverse_in_left_part():
    # embedded indecomposables and their tau^{-1} stay in the left part
    from dupcat.dup import dup_category, rep_to_triple

    q = a_n(2)
    lpc = left_part_catalog(q)
    for m in knit_ind_A(q).entries:
        em = embed_A(m)
        assert lpc.member_index(em) is not None
        ti = dup_category(q).tau_inv(em.rep())
        if ti is not None:
            assert lpc.member_index(rep_to_triple(ti, q)) is not None


def test_member_index_is_exact():
    """A decomposable module with a member's dimension vector is no member;
    a fresh copy of a member is found."""
    q = a_n(2)
    lpc = left_part_catalog(q)
    summed, _, _ = direct_sum([simple_rep(q, "1"), simple_rep(q, "2")])
    p2 = projective_rep(q, "2")
    assert lpc.member_index(embed_A(summed)) is None
    i = lpc.member_index(embed_A(p2))
    assert i is not None and lpc.members[i].x_part.dim_vector() == summed.dim_vector()


def test_left_part_built_once_and_frozen():
    q = d4_subspace()
    lpc = left_part_catalog(q)
    assert left_part_catalog(q) is lpc
    with pytest.raises(AttributeError, match="cannot assign"):
        lpc.members = ()
