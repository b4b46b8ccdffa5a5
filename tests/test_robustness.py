"""Wider-net checks: an E-type fixture, orientation robustness, and engine
invariants on randomly oriented Dynkin diagrams."""

import itertools
import random

from dupcat.cli import main
from dupcat.cluster import enumerate_cluster_tilting
from dupcat.hereditary import knit_ind_A, path_category
from dupcat.quiver import Quiver, classify_dynkin
from dupcat.reps import is_isomorphic
from dupcat.tilting import expected_count, verify_bijection
from oracles import ext1_by_bases, hom_dim_by_rank


def positive_root_count(dynkin) -> int:
    """Number of positive roots, i.e. |ind A|, per Dynkin family: the
    closed-form oracle for the size of the knitted catalog."""
    fam, n = dynkin.family, dynkin.rank
    if fam == "A":
        return n * (n + 1) // 2
    if fam == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def _orient_star(bits):
    arrows = []
    for name, other, b in [("al", "2", bits[0]), ("be", "3", bits[1]), ("ga", "4", bits[2])]:
        arrows.append((name, other, "1") if b == 0 else (name, "1", other))
    return Quiver(["1", "2", "3", "4"], arrows)


def _orient_line(n, bits):
    arrows = []
    for i, b in enumerate(bits):
        u, v = str(i + 1), str(i + 2)
        arrows.append((f"a{i}", v, u) if b == 0 else (f"a{i}", u, v))
    return Quiver([str(i) for i in range(1, n + 1)], arrows)


def test_e6_root_count_and_cluster_count():
    e6 = Quiver(
        ["1", "2", "3", "4", "5", "6"],
        [
            ("a", "2", "1"),
            ("b", "3", "2"),
            ("c", "4", "3"),
            ("d", "5", "4"),
            ("e", "6", "3"),
        ],
    )
    dynkin = classify_dynkin(e6)
    assert str(dynkin) == "E6"
    cat = knit_ind_A(e6)
    assert len(cat.entries) == positive_root_count(dynkin) == 36
    assert len(enumerate_cluster_tilting(e6)) == expected_count(dynkin) == 833


def test_cluster_count_orientation_independent():
    for bits in itertools.product([0, 1], repeat=2):
        q = _orient_line(3, bits)
        assert len(enumerate_cluster_tilting(q)) == 14
    for bits in itertools.product([0, 1], repeat=3):
        q = _orient_star(bits)
        assert len(enumerate_cluster_tilting(q)) == 50


def test_bijection_on_opposite_star_orientation():
    q = _orient_star((1, 1, 1))  # all arrows out of the centre
    rep = verify_bijection(q)
    assert rep.matched and rep.left_count == 50


def test_engine_invariants_on_random_orientations():
    rng = random.Random(11)
    quivers = [_orient_line(4, tuple(rng.randint(0, 1) for _ in range(3)))
               for _ in range(2)]
    quivers.append(_orient_star(tuple(rng.randint(0, 1) for _ in range(3))))
    for q in quivers:
        ctx = path_category(q)
        cat = knit_ind_A(q)
        assert len(cat.entries) == positive_root_count(classify_dynkin(q))
        for x in q.vertices:
            assert is_isomorphic(
                ctx.nakayama(ctx.proj[x]),
                [i for z, i in ctx.inj.items() if z == x][0],
            )
        for i, m in enumerate(cat.entries):
            if cat.projective[i]:
                continue
            tm = ctx.tau(m)
            for n in cat.entries:
                assert ext1_by_bases(ctx, m, n) == hom_dim_by_rank(n, tm)


def test_cli_analyze_d4_golden(fixture_dir, capsys):
    assert main(["analyze", "--quiver", str(fixture_dir / "d4.quiver")]) == 0
    out = capsys.readouterr().out
    assert "dynkin type: D4" in out
    assert "|ind A| = 12" in out
    assert "16 non-projective-injective (= 12 + 4)" in out
    assert "|ind dup| = 36 (4 projective-injective)" in out
    assert "3 vanish" not in out  # six composites vanish, not three
    assert "6 vanish, 3 pairwise identified" in out
