import math
import random

import pytest

from dupcat.cluster import cliques, fundamental_domain, pi_bar
from dupcat.dup import (
    dim_vectors,
    dup_category,
    embed_A,
    knit_ind_dup,
    standard_dup_modules,
)
from dupcat.errors import CatalogError, NotDynkinError, NotInDomainError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.hereditary import knit_ind_A, path_category, projective_rep, simple_rep
from dupcat.leftpart import left_part_catalog, primed_projective_entry
from dupcat.quiver import Quiver, classify_dynkin, parse_quiver
from dupcat.reps import is_isomorphic, sum_rep
from dupcat.session import session
from dupcat.tilting import (
    enumerate_L_tilting,
    expected_count,
    is_tilting_module,
    verify_bijection,
)
from oracles import (
    domain_objects,
    enumerate_cluster_tilting,
    ext1_by_bases,
    ext1_cluster_dim,
    hom_dim_by_rank,
    rebuilt,
    restrict,
)


def _find(q, rep):
    """The position of the ind A module ``rep`` in the fundamental domain."""
    idx = knit_ind_A(q).find(rep)
    assert idx is not None
    return fundamental_domain(q).of_ind_a[idx]


def _shift(q, x):
    """The position of P_x[1]: past ind A, in vertex order."""
    return len(knit_ind_A(q).entries) + q.vertices.index(x)


def test_pi_bar_a2():
    q = a_n(2)
    z1 = dup_category(q).cosyzygy(embed_A(projective_rep(q, "1")))[0]
    assert pi_bar(q, z1) == _shift(q, "1")
    p2 = embed_A(projective_rep(q, "2"))
    assert pi_bar(q, p2) == _find(q, projective_rep(q, "2"))
    with pytest.raises(NotInDomainError):
        pi_bar(q, standard_dup_modules(q).projective_primed["1"])


def _pi_bar_by_scan(q, m):
    """The isomorphism-scan projection: the projective-injectives, then the
    embedded modules by a lookup in ind A, then the cosyzygies."""
    std = standard_dup_modules(q)
    if any(is_isomorphic(m, p) for p in std.projective_primed.values()):
        raise NotInDomainError("projective-injectives vanish under projection")
    if not any(dim_vectors(m)[1]):
        idx = knit_ind_A(q).find(restrict(m, q, str))
        if idx is None:
            raise NotInDomainError("not an indecomposable of the base category")
        return fundamental_domain(q).of_ind_a[idx]
    for x in q.vertices:
        z = dup_category(q).tau_inv(std.embedded_injective[x])
        if is_isomorphic(m, z):
            return _shift(q, x)
    raise NotInDomainError("module is not in the left part")


def _outcome(project, q, m):
    try:
        return project(q, m)
    except NotInDomainError:
        return NotInDomainError


@pytest.mark.parametrize("make", [lambda: a_n(3), d4_subspace], ids=["A3", "D4"])
def test_pi_bar_agrees_with_the_isomorphism_scan(make):
    """The member lookup projects every entry of the knitted catalog of the
    duplicated algebra as the isomorphism scan does, or refuses it alike."""
    q = make()
    outcomes = [
        (_outcome(pi_bar, q, m), _outcome(_pi_bar_by_scan, q, m)) for m in knit_ind_dup(q).entries
    ]
    assert all(new == old for new, old in outcomes)
    assert {new for new, _ in outcomes} == set(range(len(fundamental_domain(q).names))) | {NotInDomainError}


def test_pi_bar_refuses_modules_outside_the_left_part():
    q = a_n(2)
    sum_simples = sum_rep([simple_rep(q, "1"), simple_rep(q, "2")])
    with pytest.raises(NotInDomainError, match="not in the left part"):
        pi_bar(q, embed_A(sum_simples))
    with pytest.raises(NotInDomainError, match="not in the left part"):
        pi_bar(q, standard_dup_modules(q).injective_primed["2"])


def test_fundamental_domain_count():
    for q in (a_n(1), a_n(2), a_n(3), d4_subspace()):
        assert len(fundamental_domain(q).names) == len(knit_ind_A(q).entries) + len(
            q.vertices
        )


def test_ext1_cluster_examples_a2():
    q = a_n(2)
    s2 = _find(q, simple_rep(q, "2"))
    p1 = _find(q, projective_rep(q, "1"))
    p2 = _find(q, projective_rep(q, "2"))
    sp1, sp2 = _shift(q, "1"), _shift(q, "2")
    table = fundamental_domain(q).ext1
    for i, j, dim in ((s2, p1, 1), (sp1, sp2, 0), (sp1, p2, 1), (sp2, p1, 0)):
        assert table[i][j] == ext1_cluster_dim(q, i, j) == dim


def test_ext1_cluster_symmetry():
    """The Ext^1 table of the fundamental domain is symmetric and equals the
    one computed from full Hom bases."""
    for q in (a_n(2), a_n(3), a_n(3, "zigzag")):
        table = fundamental_domain(q).ext1
        size = len(table)
        assert table == tuple(tuple(ext1_cluster_dim(q, i, j) for j in range(size)) for i in range(size))
        assert all(table[i][j] == table[j][i] for i in range(size) for j in range(size))


def _hom_cluster_dim_modules(m, n):
    """Morphism dimension between two module representatives: base Hom plus
    the extension term from the inverse orbit shift (absent for projectives)."""
    cat = path_category(m.quiver)
    t = cat.tau(m)
    return hom_dim_by_rank(m, n) + (0 if t is None else ext1_by_bases(cat, t, n))


def _is_maximal_rigid(q, positions):
    """The positions are rigid and pairwise compatible, and no further
    rigid position is compatible with them, by Ext^1 from full Hom bases."""
    return all(ext1_cluster_dim(q, i, j) == 0 for i in positions for j in positions) and not any(
        o not in positions
        and ext1_cluster_dim(q, o, o) == 0
        and all(ext1_cluster_dim(q, o, c) == 0 for c in positions)
        for o in range(len(fundamental_domain(q).names))
    )


def test_hom_cluster_dim_modules_a2():
    q = a_n(2)
    p2 = projective_rep(q, "2")
    p1 = projective_rep(q, "1")
    s2 = simple_rep(q, "2")
    assert _hom_cluster_dim_modules(p2, p2) == 1
    assert _hom_cluster_dim_modules(s2, s2) == 1
    assert _hom_cluster_dim_modules(s2, p1) == 0


def test_enumerate_cluster_tilting_small():
    q1 = a_n(1)
    sets1 = enumerate_cluster_tilting(q1)
    assert len(sets1) == 2
    q = a_n(2)
    sets = enumerate_cluster_tilting(q)
    assert len(sets) == 5
    for s in sets:
        assert _is_maximal_rigid(q, s)
    with pytest.raises(NotDynkinError):
        enumerate_cluster_tilting(kronecker())


def test_enumerated_sets_maximal_d4():
    """The projected sets of the D4 bijection are maximal rigid by Ext^1
    from full Hom bases, and so are the sets of the reference search."""
    q = d4_subspace()
    sets = verify_bijection(q).cluster_sets
    assert len(sets) == 50 and sets == enumerate_cluster_tilting(q)
    for s in sets:
        assert _is_maximal_rigid(q, s)


def test_pentagon_a2():
    q = a_n(2)
    p1 = _find(q, projective_rep(q, "1"))
    p2 = _find(q, projective_rep(q, "2"))
    s2 = _find(q, simple_rep(q, "2"))
    sp1, sp2 = _shift(q, "1"), _shift(q, "2")
    expected = sorted(
        tuple(sorted(s)) for s in ((p1, p2), (p2, s2), (s2, sp1), (sp1, sp2), (sp2, p1))
    )
    assert verify_bijection(q).cluster_sets == enumerate_cluster_tilting(q) == expected
    names = fundamental_domain(q).names
    assert sorted(sorted(names[k] for k in s) for s in expected) == [
        ["M01", "M11"], ["M01", "P[1][1]"], ["M10", "M11"], ["M10", "P[2][1]"], ["P[1][1]", "P[2][1]"]
    ]


def _entries_of(q, *modules):
    """The entry indices of ``modules`` in the knit of the duplicated
    algebra of q."""
    return knit_ind_dup(q).indices(list(modules))


def test_is_tilting_module_examples_a2():
    """The axioms on entry indices: the P_x' with P_1 + P_2 or with S_2 and
    the cosyzygy of P_1 are tilting; without the P_x' a nonzero Ext^1 and
    both missing P_x' are named, and a repeated summand is named."""
    q = a_n(2)
    p1 = embed_A(projective_rep(q, "1"))
    p2 = embed_A(projective_rep(q, "2"))
    s2 = embed_A(simple_rep(q, "2"))
    z1 = dup_category(q).cosyzygy(p1)[0]
    p1, p2, s2, z1 = _entries_of(q, p1, p2, s2, z1)
    pp1, pp2 = primed_projective_entry(q, "1"), primed_projective_entry(q, "2")
    assert is_tilting_module(q, (pp1, pp2, p1, p2)).passed
    assert is_tilting_module(q, [pp1, pp2, s2, z1]).passed
    verdict = is_tilting_module(q, [p1, p2, s2, z1])
    assert not verdict.passed
    assert any(f.startswith("Ext^1(summand ") and f.endswith(") is nonzero") for f in verdict.failures)
    assert "projective-injective at 1' is not a summand" in verdict.failures
    assert "projective-injective at 2' is not a summand" in verdict.failures
    # P_1 twice has the right count and no Ext^1, but is not basic
    assert is_tilting_module(q, [pp1, pp2, p1, p1]).failures == ["a summand is repeated"]


def test_pd_two_summand_fails_the_first_axiom_and_has_no_ext1():
    """An entry of ind of the duplicated algebra of A2 with projective
    dimension 2: a module with it as a summand fails the tilting axioms with
    a failure naming that pd and none for Ext^1 from it, and
    ``DupCatalog.ext1_dim`` from it raises CatalogError, because the AR
    formula on the hom table holds only from a source of pd <= 1."""
    q = a_n(2)
    cat = knit_ind_dup(q)
    k = cat.pd_table.index(False)
    (p1,) = _entries_of(q, embed_A(projective_rep(q, "1")))
    verdict = is_tilting_module(q, [k, p1, primed_projective_entry(q, "1"), primed_projective_entry(q, "2")])
    assert not verdict.passed
    assert "summand 0 has projective dimension 2" in verdict.failures
    assert not any(f.startswith("Ext^1(summand 0,") for f in verdict.failures)
    for j in range(len(cat.entries)):
        with pytest.raises(CatalogError, match=f"entry {k}: its projective dimension is 2"):
            cat.ext1_dim(k, j)


def test_enumerate_l_tilting_pentagon():
    """The five free parts of A2 project to five sets, and each with the
    forced P_x' is a tilting module."""
    q = a_n(2)
    free_parts = enumerate_L_tilting(q)
    assert len(free_parts) == 5
    entries = knit_ind_dup(q).entries
    images = {frozenset(pi_bar(q, entries[k]) for k in free) for free in free_parts}
    assert len(images) == 5
    forced = tuple(primed_projective_entry(q, x) for x in q.vertices)
    for free in free_parts:
        assert all(type(k) is int for k in free)
        assert is_tilting_module(q, free + forced).passed


def test_enumerate_l_tilting_a1():
    records = enumerate_L_tilting(a_n(1))
    assert len(records) == 2


def test_verify_bijection_small():
    for q in (a_n(1), a_n(2)):
        rep = verify_bijection(q)
        assert rep.matched, rep.witnesses
        assert rep.left_count == rep.right_count == expected_count(classify_dynkin(q))


def test_domain_positions_are_named_once():
    """On D4 the fundamental domain names each of its 16 positions once: ind
    A by (total dimension, dimension vector) as M and its dimension vector,
    then P_x[1] per vertex; each entry of ind A has its own position, and
    pi_bar returns a position, a plain int."""
    q = d4_subspace()
    domain = fundamental_domain(q)
    assert fundamental_domain(q) is domain
    entries = knit_ind_A(q).entries
    assert sorted(domain.of_ind_a) == list(range(12))
    assert domain.names == tuple(
        ["M" + "".join(map(str, m.dim_vector())) for _, m in domain_objects(q)[:12]]
        + [f"P[{x}][1]" for x in q.vertices]
    )
    for i, p in enumerate(domain.of_ind_a):
        assert domain.names[p] == "M" + "".join(map(str, entries[i].dim_vector()))
    assert len(set(domain.names)) == 16
    lp = left_part_catalog(q)
    assert all(type(pi_bar(q, knit_ind_dup(q).entries[k])) is int for k in lp.non_proj_inj)


def _bijection_by_two_searches(q):
    """(matched, witnesses) of the bijection as two clique searches and a
    comparison of frozensets: the projected free parts of the left-part
    tilting modules against the reference search on the cluster side."""
    free_parts, cluster_side = enumerate_L_tilting(q), enumerate_cluster_tilting(q)
    entries = knit_ind_dup(q).entries
    cluster_sets = {frozenset(s) for s in cluster_side}
    witnesses, images = [], set()
    for free in free_parts:
        img = frozenset(pi_bar(q, entries[k]) for k in free)
        if len(img) != len(free):
            witnesses.append(f"projection not injective on {free}")
        if img in images:
            witnesses.append(f"two tilting modules project to {sorted(img)}")
        images.add(img)
    witnesses += [f"projected set not cluster-tilting: {sorted(img)}" for img in images - cluster_sets]
    witnesses += [f"cluster-tilting set not hit: {sorted(extra)}" for extra in cluster_sets - images]
    return not witnesses and len(free_parts) == len(cluster_sets), sorted(witnesses)


@pytest.mark.parametrize("tamper", ["none", "set dropped", "outside the domain", "one object"])
def test_bijection_by_masks_equals_frozensets(monkeypatch, tamper):
    """On A3, the bijection checked on the compatibility graphs (the bit
    masks of ``Domain.compat`` against Ext^1 in the knit) reports a failure
    exactly when the comparison of two searches as frozensets does: as it is,
    with one compatible pair of positions made incompatible in the Ext^1
    table (so the cluster side drops the sets holding both), with one
    summand projected outside the fundamental domain, and with every
    summand projected to one position.  Untampered, its cluster side is
    the reference search's list."""
    q = a_n(3)
    s = session(q)
    domain, table = fundamental_domain(q), s.pi_bar_table
    first = enumerate_L_tilting(q)[0][0]
    if tamper == "set dropped":
        i, j = 0, next(j for j in range(1, len(domain.names)) if domain.compat[0] >> j & 1)
        ext1 = [list(row) for row in domain.ext1]
        ext1[i][j] = ext1[j][i] = 1
        monkeypatch.setattr(s, "fundamental_domain", rebuilt(domain, ext1=tuple(map(tuple, ext1))))
    if tamper == "outside the domain":
        monkeypatch.setattr(s, "pi_bar_table", {**table, first: len(domain.names)})
    if tamper == "one object":
        monkeypatch.setattr(s, "pi_bar_table", dict.fromkeys(table, 0))
    rep = verify_bijection(q)
    matched, witnesses = _bijection_by_two_searches(q)
    assert rep.matched == matched == (tamper == "none")
    assert bool(rep.witnesses) == bool(witnesses) != matched
    if matched:
        assert rep.cluster_sets == enumerate_cluster_tilting(q) and rep.right_count == 14


@pytest.mark.parametrize("name", ["a1", "a2", "a3_linear", "a3_zigzag", "a4", "d4", "e6", "e7"])
def test_cluster_sets_equal_the_reference_search(name, fixture_dir):
    """On every fixture through E7 the cluster side of the bijection, the
    sorted projected sets, is the list of the clique search on the
    fundamental domain, in its order."""
    q = parse_quiver((fixture_dir / f"{name}.quiver").read_text(encoding="utf-8"))
    rep = verify_bijection(q)
    assert rep.matched, rep.witnesses
    assert rep.cluster_sets == enumerate_cluster_tilting(q)
    assert rep.right_count == len(rep.cluster_sets) == expected_count(classify_dynkin(q))


def _branched(n, at):
    """The chain 1 - 2 - ... - (n-1) with the vertex n attached to ``at``."""
    arrows = [(f"a{i}", str(i + 1), str(i)) for i in range(1, n - 1)]
    return Quiver([str(i) for i in range(1, n + 1)], arrows + [("b", str(n), str(at))])


def test_expected_count():
    """expected_count has a count for every type classify_dynkin returns:
    A1-A11, D4-D11 and E6-E8, with the known cluster counts (Catalan
    numbers for A_n, (3n - 2)/n binom(2n - 2, n - 1) for D_n)."""
    assert expected_count(classify_dynkin(a_n(1))) == 2
    assert expected_count(classify_dynkin(a_n(2))) == 5
    assert expected_count(classify_dynkin(a_n(3))) == 14
    assert expected_count(classify_dynkin(a_n(4))) == 42
    assert expected_count(classify_dynkin(d4_subspace())) == 50
    quivers = [a_n(n) for n in range(1, 12)]
    quivers += [_branched(n, n - 2) for n in range(4, 12)]
    quivers += [_branched(n, 3) for n in (6, 7, 8)]
    counts = {}
    for q in quivers:
        dynkin = classify_dynkin(q)
        count = expected_count(dynkin)
        assert type(count) is int
        counts[str(dynkin)] = count
    assert len(counts) == 22
    for n in range(1, 12):
        assert counts[f"A{n}"] == math.comb(2 * n + 2, n + 1) // (n + 2)
    for n in range(4, 12):
        assert counts[f"D{n}"] * n == (3 * n - 2) * math.comb(2 * n - 2, n - 1)
    assert (counts["E6"], counts["E7"], counts["E8"]) == (833, 4160, 25080)


def _backtrack_cliques(compat, size):
    """Index-by-index backtracking over a boolean compatibility table: the
    search both enumerations ran before the bit-mask routine."""
    count = len(compat)
    out = []

    def backtrack(start, chosen):
        if len(chosen) == size:
            out.append(tuple(chosen))
            return
        for i in range(start, count):
            if count - i < size - len(chosen):
                break
            if all(compat[i][j] for j in chosen):
                backtrack(i + 1, chosen + [i])

    backtrack(0, [])
    return out


def test_cliques_match_backtracking_in_order():
    rng = random.Random(5)
    for _ in range(200):
        count, size = rng.randint(0, 12), rng.randint(0, 5)
        table = [[False] * count for _ in range(count)]
        masks = [0] * count
        density = rng.random()
        for i in range(count):
            for j in range(i + 1, count):
                if rng.random() < density:
                    table[i][j] = table[j][i] = True
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        assert cliques(masks, size) == _backtrack_cliques(table, size)


@pytest.mark.parametrize("q", [a_n(3), d4_subspace()], ids=["A3", "D4"])
def test_both_enumerations_match_backtracking(q):
    n = len(q.vertices)
    size = len(fundamental_domain(q).names)
    table = [[ext1_cluster_dim(q, i, j) == 0 for j in range(size)] for i in range(size)]
    want = _backtrack_cliques(table, n)
    assert enumerate_cluster_tilting(q) == verify_bijection(q).cluster_sets == want
    entries = knit_ind_dup(q).entries
    candidates = sorted(
        left_part_catalog(q).non_proj_inj,
        key=lambda k: (entries[k].total_dim(), dim_vectors(entries[k])),
    )
    ctx = dup_category(q)
    modules = [entries[k] for k in candidates]
    table = [[ext1_by_bases(ctx, a, b) == 0 == ext1_by_bases(ctx, b, a) for b in modules] for a in modules]
    want = [tuple(candidates[i] for i in c) for c in _backtrack_cliques(table, n)]
    assert enumerate_L_tilting(q) == want
    assert len(want) == expected_count(classify_dynkin(q))
