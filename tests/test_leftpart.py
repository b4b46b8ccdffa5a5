import gc
import subprocess
import sys

import pytest

from dupcat import modcat, reps, session
from dupcat.cluster import pi_bar
from dupcat.dup import dim_vectors, embed_A, knit_ind_dup
from dupcat.errors import NotDynkinError, NotInDomainError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.hereditary import knit_ind_A, projective_rep, simple_rep
from dupcat.leftpart import (
    canonical_tilting,
    definition_left_part_indices,
    left_part_catalog,
    sectional_check,
    verify_ext_injectives,
    verify_left_part_definition,
    verify_pd_criterion,
    verify_sink_reachability,
)
from dupcat.quiver import parse_quiver
from dupcat.reps import sum_rep
import oracles
from oracles import rebuilt


def _sigma_catalog(q):
    """The Ext-injectives of the left part, per the structural description:
    the tau^{-1} of the embedded injectives together with the
    projective-injectives lying in the left part."""
    sigma = left_part_catalog(q).sigma  # NotDynkinError before any knit
    return [knit_ind_dup(q).entries[k] for k in sigma]


def test_sigma_a2():
    q = a_n(2)
    sigma = _sigma_catalog(q)
    assert len(sigma) == 4
    dimsets = sorted(map(dim_vectors, sigma))
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
    assert len(lpc2.non_proj_inj) == 5 == 3 + 2
    lpc4 = left_part_catalog(d4_subspace())
    assert len(lpc4.non_proj_inj) == 16 == 12 + 4


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
    cat = knit_ind_dup(q)
    assert sum(cat.in_L) == 7
    assert sum(cat.in_sigma) == 4
    assert verify_pd_criterion(cat).passed
    assert verify_sink_reachability(cat).passed
    assert sectional_check(cat).passed


def test_sectional_check_leaves_no_reference_cycles():
    q = d4_subspace()
    cat = knit_ind_dup(q)
    first = sectional_check(cat)
    gc.collect()
    gc.disable()
    try:
        report = sectional_check(cat)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
    assert report.as_dict() == first.as_dict() and report.passed and report.witnesses == []


def test_sectional_check_reports_an_oriented_cycle():
    q = a_n(2)
    cat = knit_ind_dup(q)
    arrows = cat.catalog.arrows
    back = tuple((t, s, k) for s, t, k in arrows)
    cyclic = rebuilt(cat, catalog=rebuilt(cat.catalog, arrows=arrows + back))
    report = sectional_check(cyclic)
    assert not report.passed
    assert report.witnesses == ["AR quiver has an oriented cycle"]


def test_corrupted_catalog_is_detected():
    q = a_n(2)
    lpc = left_part_catalog(q)
    cat = knit_ind_dup(q)
    # drop a genuine member (the last P_y') from the structural side; the
    # left part is shared, so the lie goes into a copy
    broken = lpc._replace(proj_inj=lpc.proj_inj[:-1])
    assert len(broken.members) == len(lpc.members) - 1
    report = verify_left_part_definition(broken, cat)
    assert not report.passed
    assert report.witnesses == [f"catalog entry {lpc.members[-1]} is in the definition-based left part only"]
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
    from dupcat.dup import dup_category

    q = a_n(2)
    lpc = left_part_catalog(q)
    catalog = knit_ind_dup(q).catalog
    for m in knit_ind_A(q).entries:
        em = embed_A(m)
        assert catalog.find(em) in lpc.members
        ti = dup_category(q).tau_inv(em)
        if ti is not None:
            assert catalog.find(ti) in lpc.members


def test_member_index_is_exact():
    """A decomposable module with a member's dimension vector is no member;
    a fresh copy of a member is found at the member's entry index."""
    q = a_n(2)
    lpc = left_part_catalog(q)
    catalog = knit_ind_dup(q).catalog
    summed = sum_rep([simple_rep(q, "1"), simple_rep(q, "2")])
    p2 = projective_rep(q, "2")
    assert catalog.find(embed_A(summed)) is None
    with pytest.raises(NotInDomainError, match="not in the left part"):
        pi_bar(q, embed_A(summed))
    i = catalog.find(embed_A(p2))
    assert i in lpc.members and dim_vectors(catalog.entries[i])[0] == summed.dim_vector()


def test_left_part_built_once_and_frozen():
    q = d4_subspace()
    lpc = left_part_catalog(q)
    assert left_part_catalog(q) is lpc
    with pytest.raises(AttributeError, match="can't set attribute"):
        lpc.ind_a = ()


@pytest.mark.parametrize(
    "name", ["a1", "a2", "a3_linear", "a3_zigzag", "a4", "d4", "e6", "e7"],
)
def test_left_part_members_equal_the_radical_route(fixture_dir, name):
    """The members read off the knit are, in order, the entries of the
    modules the structure route finds (``oracles.left_part_by_radicals``):
    ind A, tau^{-1} of the embedded injectives through the opposite
    category, and the P_y' whose radicals decompose into members."""
    q = parse_quiver((fixture_dir / f"{name}.quiver").read_text(encoding="utf-8"))
    lpc = left_part_catalog(q)
    assert knit_ind_dup(q).indices(oracles.left_part_by_radicals(q)) == list(lpc.members)
    assert len(lpc.non_proj_inj) == len(knit_ind_A(q).entries) + len(q.vertices)


def test_left_part_after_the_knit_solves_nothing(monkeypatch):
    """Once the duplicated D4 algebra is knitted, building the left part
    makes no split_pair, hom_basis or radical call: it reads the knit."""
    monkeypatch.setattr(session, "_sessions", {})
    q = d4_subspace()
    knit_ind_dup(q)
    calls = []
    for owner, name in ((reps, "split_pair"), (reps, "hom_basis"), (modcat, "hom_basis"),
                        (modcat.ModuleCategory, "radical")):

        def counting(*args, _inner=getattr(owner, name), _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(owner, name, counting)
    lpc = left_part_catalog(q)
    assert len(lpc.members) == 17 and calls == []


_TAMPERED_LINKS = """
import sys
from dupcat.dup import DupCatalog, embed_A, knit_ind_dup
from dupcat.errors import CatalogError
from dupcat.fixtures import d4_subspace
from dupcat.hereditary import knit_ind_A
from dupcat.leftpart import left_part_catalog
from dupcat.modcat import ARCatalog
from dupcat.session import session

q = d4_subspace()
good = knit_ind_dup(q)
ar, cat_a = good.catalog, knit_ind_A(q)
ind_a = good.indices([embed_A(e) for e in cat_a.entries])
inj = [ind_a[k] for k in cat_a.injective_at]  # the embedded injectives
links = dict(ar.tau_inv_of)
case = sys.argv[1]
if case == "injective":
    del links[inj[0]]
elif case == "inside-ind-A":
    links[inj[0]] = ind_a[0]
elif case == "duplicate":
    links[inj[1]] = links[inj[0]]
else:
    links[inj[0]] = good.pd_table.index(False)
tau_of = {t: m for m, t in links.items()}
# the session's knit, which the left part reads, with its links tampered
session(q).__dict__["dup_catalog"] = DupCatalog(q, ARCatalog(ar.category, ar.entries, links, tau_of, ar.arrows))
try:
    left_part_catalog(q)
except CatalogError as exc:
    sys.exit(0 if str(exc) == sys.argv[2] else 2)
sys.exit(1)
"""

_LINK_TAMPERS = {
    "injective": "embedded injective cannot be injective here",
    "inside-ind-A": "cosyzygy candidate fell into ind A",
    "duplicate": "duplicate member",
    "pd": "left-part member 12 has projective dimension > 1",
}


@pytest.mark.parametrize("case", sorted(_LINK_TAMPERS))
def test_left_part_refuses_tampered_links(case, src_env):
    """The left part reads the tau^{-1} of the embedded injectives off the
    knit's links, so a D4 knit whose link from an embedded injective is
    missing, points into ind A, repeats another's or points to an entry of
    pd 2 raises CatalogError, also under python -O."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _TAMPERED_LINKS, case, _LINK_TAMPERS[case]],
            env=src_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)
