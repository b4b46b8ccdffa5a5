"""Representation-level invariants raise typed errors (kept under python -O),
split_pair solves only the Hom spaces its verdict needs, and has_section
decides split epimorphisms exactly."""

import pytest

from dupcat import reps
from dupcat.errors import CatalogError
from dupcat.dup import dup_category
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import path_category, projective_rep, simple_rep
from dupcat.linalg import RMatrix
from dupcat.reps import RepMap, cokernel, direct_sum, has_section, identity_map, split_pair


def test_act_path_rejects_path_from_wrong_vertex():
    q = a_n(3)  # 3 -> 2 -> 1
    p3 = projective_rep(q, "3")
    assert p3.act_path(("a3", "a2"), "3") == RMatrix.identity(1)
    with pytest.raises(ValueError, match="does not start"):
        p3.act_path(("a2",), "3")


def test_compose_rejects_mismatched_middle_module():
    q = a_n(3)
    f = identity_map(simple_rep(q, "1"))
    g = identity_map(projective_rep(q, "3"))
    with pytest.raises(ValueError, match="mismatched"):
        g.compose(f)


def test_empty_direct_sum_is_rejected():
    with pytest.raises(ValueError, match="empty direct sum"):
        direct_sum([])


def test_cokernel_of_non_morphism_is_rejected():
    q = a_n(2)  # 2 -> 1
    s2, p2 = simple_rep(q, "2"), projective_rep(q, "2")
    # The identity at vertex 2 does not commute with the arrow into vertex 1.
    f = RepMap(s2, p2, {"2": RMatrix.identity(1)}, check=False)
    with pytest.raises(CatalogError, match="ill-defined"):
        cokernel(f)


def test_split_pair_skips_reverse_hom_when_forward_is_zero(monkeypatch):
    q = a_n(2)  # 2 -> 1
    s1, s2, p2 = simple_rep(q, "1"), simple_rep(q, "2"), projective_rep(q, "2")
    calls = []
    solve = reps.hom_basis
    monkeypatch.setattr(reps, "hom_basis", lambda m, n: calls.append((m, n)) or solve(m, n))
    assert split_pair(s1, s2) is None  # Hom(S1, S2) = 0
    assert calls == [(s1, s2)]
    calls.clear()
    assert split_pair(s1, p2) is None  # Hom(S1, P2) != 0 = Hom(P2, S1)
    assert calls == [(s1, p2), (p2, s1)]
    calls.clear()
    f, g = split_pair(p2, p2)
    assert g.compose(f).is_isomorphism() and len(calls) == 2


def test_has_section_on_direct_sum_projections():
    q = d4_subspace()
    p2, s1, s3 = projective_rep(q, "2"), simple_rep(q, "1"), simple_rep(q, "3")
    _, _, projections = direct_sum([p2, s1, s3])
    assert all(has_section(g) for g in projections)
    # P_2 -> S_2 is onto but not split; S_1 -> 0 splits trivially
    _, top = cokernel(path_category(q).radical(p2)[1])
    assert not has_section(top)
    assert has_section(reps.zero_map(s1, reps.zero_rep(q)))


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
def test_has_section_false_on_almost_split_sequences(category):
    catalog = category(d4_subspace()).knit()
    assert catalog.sequences
    for seq in catalog.sequences.values():
        assert seq.g.is_surjective()
        assert not has_section(seq.g)
