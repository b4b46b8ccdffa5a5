"""Acceptance suite: every criterion is exact (integer counts, exact
isomorphisms over Q); there are no tolerances anywhere.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import pytest

from dupcat.cli import main
from dupcat.cluster import fundamental_domain
from dupcat.dup import (
    dup_category,
    embed_A,
    junction_composite_pattern,
    knit_ind_dup,
)
from dupcat.errors import CapExceededError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.hereditary import injective_rep, knit_ind_A, projective_rep, simple_rep
from dupcat.leftpart import (
    canonical_tilting,
    left_part_catalog,
    sectional_check,
    verify_ext_injectives,
    verify_left_part_definition,
)
from dupcat.quiver import duplicated_quiver
from dupcat.reps import is_isomorphic
from dupcat.tilting import enumerate_L_tilting, is_tilting_module, verify_bijection
from dupcat.verify import check_ext_symmetry_and_cross_model
from oracles import ext1_by_bases, ext1_cluster_dim

ALL_FIXTURES = [
    ("A1", a_n(1)),
    ("A2", a_n(2)),
    ("A3-linear", a_n(3)),
    ("A3-zigzag", a_n(3, "zigzag")),
    ("A4", a_n(4)),
    ("D4", d4_subspace()),
]

KNITTED_FIXTURES = [
    ("A1", a_n(1)),
    ("A2", a_n(2)),
    ("A3-linear", a_n(3)),
    ("A3-zigzag", a_n(3, "zigzag")),
    ("D4", d4_subspace()),
]


def _ok(criterion: str):
    print(f"[acceptance] PASS {criterion}")


def test_criterion_1_cosyzygy_equals_translate_of_injective():
    """Cosyzygy of each embedded projective = translate of the embedded
    injective, computed by disjoint code paths; exact isomorphism."""
    for name, q in ALL_FIXTURES:
        cat = dup_category(q)
        for x in q.vertices:
            lhs, _ = cat.cosyzygy(embed_A(projective_rep(q, x)))
            rhs = cat.tau_inv(embed_A(injective_rep(q, x)))
            assert is_isomorphic(lhs, rhs), (name, x)
    _ok("1: cosyzygy/translate identity on all fixtures, all vertices")


def test_criterion_2_left_part_two_route_equality():
    """Definition-based left part (predecessor closure + projective
    dimensions on the knitted catalog) equals the structure-based one."""
    for name, q in [f for f in KNITTED_FIXTURES if f[0] != "A3-zigzag"] + [
        ("A3-zigzag", a_n(3, "zigzag"))
    ]:
        lpc = left_part_catalog(q)
        cat = knit_ind_dup(q)
        report = verify_left_part_definition(lpc, cat)
        assert report.passed, (name, report.witnesses)
    _ok("2: left-part two-route set equality on A1, A2, A3 (both), D4")


def test_criterion_3_fundamental_domain_counts():
    expected = {"A1": 2, "A2": 5, "A3-linear": 9, "A3-zigzag": 9, "D4": 16}
    for name, q in KNITTED_FIXTURES:
        lpc = left_part_catalog(q)
        got = len(lpc.non_proj_inj_members())
        assert got == expected[name] == len(knit_ind_A(q).entries) + len(q.vertices)
        assert len(fundamental_domain(q)) == got
    _ok("3: fundamental-domain counts 2, 5, 9, 16")


def test_criterion_4_tilting_bijection_counts_and_matching():
    expected = {
        "A1": 2,
        "A2": 5,
        "A3-linear": 14,
        "A3-zigzag": 14,
        "A4": 42,
        "D4": 50,
    }
    for name, q in ALL_FIXTURES:
        rep = verify_bijection(q)
        assert rep.matched, (name, rep.witnesses)
        assert rep.left_count == rep.right_count == expected[name], name
    # the exact pentagon of free parts for A2
    q = a_n(2)
    p1 = embed_A(projective_rep(q, "1"))
    p2 = embed_A(projective_rep(q, "2"))
    s2 = embed_A(simple_rep(q, "2"))
    z1 = dup_category(q).cosyzygy(p1)[0]
    s1p = dup_category(q).cosyzygy(p2)[0]
    named = [("P1", p1), ("P2", p2), ("S2", s2), ("Z1", z1), ("S1'", s1p)]

    def free_names(rec):
        out = set()
        for m in rec.free:
            for label, mod in named:
                if m.dim_vector() == mod.dim_vector() and is_isomorphic(m, mod):
                    out.add(label)
        return frozenset(out)

    got = {free_names(rec) for rec in enumerate_L_tilting(q)}
    want = {
        frozenset({"P1", "P2"}),
        frozenset({"P2", "S2"}),
        frozenset({"S2", "Z1"}),
        frozenset({"Z1", "S1'"}),
        frozenset({"S1'", "P1"}),
    }
    assert got == want
    _ok("4: bijection verified with counts 2, 5, 14, 42, 50 and the exact pentagon")


def test_criterion_5_extension_symmetry_and_cross_model():
    for name, q in ALL_FIXTURES:
        objs = fundamental_domain(q)
        for o1 in objs:
            for o2 in objs:
                assert ext1_cluster_dim(o1, o2) == ext1_cluster_dim(o2, o1), name
        lpc = left_part_catalog(q)
        report = check_ext_symmetry_and_cross_model(q, lpc)
        assert report.passed, (name, report.witnesses)
    _ok("5: extension symmetry and cross-model equivalence, zero exceptions")


def test_criterion_6_ext_injective_characterization():
    for name, q in ALL_FIXTURES:
        lpc = left_part_catalog(q)
        report = verify_ext_injectives(lpc)
        assert report.passed, (name, report.witnesses)
        # sigma is exactly the translates of injectives plus the qualifying
        # projective-injectives, by construction; cross-check its size against
        # a brute-force pass over the full knitted catalog where available
        if name != "A4":
            cat = knit_ind_dup(q)
            ctx = dup_category(q)
            brute = []
            for i, m in enumerate(cat.entries):
                if not cat.in_L[i]:
                    continue
                if all(
                    ext1_by_bases(ctx, n, m) == 0
                    for j, n in enumerate(cat.entries)
                    if cat.in_L[j]
                ):
                    brute.append(i)
            assert sorted(brute) == sorted(
                i for i in range(len(cat.entries)) if cat.in_sigma[i]
            ), name
    _ok("6: Ext-injectives match the structural description on all fixtures")


def test_criterion_7_sectional_paths():
    for name, q in [("A3-linear", a_n(3)), ("D4", d4_subspace())]:
        cat = knit_ind_dup(q)
        report = sectional_check(cat)
        assert report.passed, (name, report.witnesses)
    _ok("7: all sink-to-left-part irreducible paths sectional on A3 and D4")


def test_criterion_8_canonical_tilting():
    for name, q in ALL_FIXTURES:
        res = canonical_tilting(q)
        assert len(res.summands) == 2 * len(q.vertices), name
        assert res.verdict.passed, (name, res.verdict.failures)
        assert is_tilting_module(q, list(res.summands)).passed, name
        # its non-projective-injective part (the translates of the embedded
        # injectives) is the free part of one of the enumerated records
        lpc = left_part_catalog(q)
        cosyz = [lpc.members[i] for i in lpc.cosyzygy_by_vertex.values()]

        def matches(rec):
            used = set()
            for m in cosyz:
                hit = next(
                    (
                        k
                        for k, f in enumerate(rec.free)
                        if k not in used
                        and f.dim_vector() == m.dim_vector()
                        and is_isomorphic(f, m)
                    ),
                    None,
                )
                if hit is None:
                    return False
                used.add(hit)
            return True

        assert any(matches(rec) for rec in enumerate_L_tilting(q)), name
    _ok("8: canonical tilting module passes all axioms with 2n summands")


def test_criterion_9_d4_golden_example():
    q = d4_subspace()
    report = duplicated_quiver(q)
    assert sorted(report.connecting_pairs()) == [("1'", "2"), ("1'", "3"), ("1'", "4")]
    pat = junction_composite_pattern(q)
    assert pat.commuting_count == 3
    assert pat.zero_count == 6
    cat = knit_ind_dup(q)
    assert len(cat.entries) == 36
    assert sum(cat.proj_injective) == 4
    _ok("9: D4 golden example (arrows, 3+6 relation pattern, 36 entries, 4 circles)")


def test_criterion_10_representation_infinite_guard(fixture_dir, capsys):
    with pytest.raises(CapExceededError):
        knit_ind_A(kronecker(), cap=8)
    code = main(
        ["analyze", "--quiver", str(fixture_dir / "kronecker.quiver"), "--cap", "8"]
    )
    assert code == 0
    assert "representation-infinite" in capsys.readouterr().out
    _ok("10: representation-infinite guard on the Kronecker quiver")
