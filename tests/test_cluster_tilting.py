import math
import random

import pytest

from dupcat import tilting
from dupcat.cluster import (
    ClusterObject,
    cliques,
    enumerate_cluster_tilting,
    fundamental_domain,
    module_object,
    pi_bar,
    shifted_projective,
)
from dupcat.dup import (
    dim_vectors,
    dup_category,
    embed_A,
    knit_ind_dup,
    proj_primed,
    standard_dup_modules,
)
from dupcat.errors import CatalogError, NotDynkinError, NotInDomainError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.hereditary import knit_ind_A, path_category, projective_rep, simple_rep
from dupcat.leftpart import left_part_catalog
from dupcat.quiver import Quiver, classify_dynkin
from dupcat.reps import is_isomorphic, sum_rep
from dupcat.session import session
from dupcat.tilting import (
    enumerate_L_tilting,
    expected_count,
    is_tilting_module,
    verify_bijection,
)
from oracles import ext1_by_bases, ext1_cluster_dim, hom_dim_by_rank, restrict


def _find(q, rep):
    idx = knit_ind_A(q).find(rep)
    assert idx is not None
    return module_object(q, idx)


def test_pi_bar_a2():
    q = a_n(2)
    z1 = dup_category(q).cosyzygy(embed_A(projective_rep(q, "1")))[0]
    assert pi_bar(q, z1) == shifted_projective(q, "1")
    p2 = embed_A(projective_rep(q, "2"))
    assert pi_bar(q, p2) == _find(q, projective_rep(q, "2"))
    with pytest.raises(NotInDomainError):
        pi_bar(q, proj_primed(q, "1"))


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
        return module_object(q, idx)
    for x, z in session(q).cosyzygies.items():
        if is_isomorphic(m, z):
            return shifted_projective(q, x)
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
    assert {new for new, _ in outcomes} == set(fundamental_domain(q)) | {NotInDomainError}


def test_pi_bar_refuses_modules_outside_the_left_part():
    q = a_n(2)
    sum_simples = sum_rep([simple_rep(q, "1"), simple_rep(q, "2")])
    with pytest.raises(NotInDomainError, match="not in the left part"):
        pi_bar(q, embed_A(sum_simples))
    with pytest.raises(NotInDomainError, match="not in the left part"):
        pi_bar(q, standard_dup_modules(q).injective_primed["2"])


def test_fundamental_domain_count():
    for q in (a_n(1), a_n(2), a_n(3), d4_subspace()):
        assert len(fundamental_domain(q)) == len(knit_ind_A(q).entries) + len(
            q.vertices
        )


def test_ext1_cluster_examples_a2():
    q = a_n(2)
    s2 = _find(q, simple_rep(q, "2"))
    p1 = _find(q, projective_rep(q, "1"))
    p2 = _find(q, projective_rep(q, "2"))
    assert ext1_cluster_dim(s2, p1) == 1
    assert ext1_cluster_dim(shifted_projective(q, "1"), shifted_projective(q, "2")) == 0
    assert ext1_cluster_dim(shifted_projective(q, "1"), p2) == 1
    assert ext1_cluster_dim(shifted_projective(q, "2"), p1) == 0


def test_ext1_cluster_symmetry():
    for q in (a_n(2), a_n(3), a_n(3, "zigzag")):
        objs = fundamental_domain(q)
        for o1 in objs:
            for o2 in objs:
                assert ext1_cluster_dim(o1, o2) == ext1_cluster_dim(o2, o1)


def _hom_cluster_dim_modules(m, n):
    """Morphism dimension between two module representatives: base Hom plus
    the extension term from the inverse orbit shift (absent for projectives)."""
    cat = path_category(m.quiver)
    t = cat.tau(m)
    return hom_dim_by_rank(m, n) + (0 if t is None else ext1_by_bases(cat, t, n))


def _is_maximal_rigid(q, objs):
    """No further rigid fundamental-domain object is compatible with ``objs``."""
    return not any(
        o not in objs
        and ext1_cluster_dim(o, o) == 0
        and all(ext1_cluster_dim(o, c) == 0 for c in objs)
        for o in fundamental_domain(q)
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
    q = d4_subspace()
    for s in enumerate_cluster_tilting(q):
        assert _is_maximal_rigid(q, s)


def test_pentagon_a2():
    q = a_n(2)
    p1 = _find(q, projective_rep(q, "1"))
    p2 = _find(q, projective_rep(q, "2"))
    s2 = _find(q, simple_rep(q, "2"))
    sp1 = shifted_projective(q, "1")
    sp2 = shifted_projective(q, "2")
    expected = {
        frozenset({p1, p2}),
        frozenset({p2, s2}),
        frozenset({s2, sp1}),
        frozenset({sp1, sp2}),
        frozenset({sp2, p1}),
    }
    assert {frozenset(s) for s in enumerate_cluster_tilting(q)} == expected


def test_is_tilting_module_examples_a2():
    q = a_n(2)
    p1 = embed_A(projective_rep(q, "1"))
    p2 = embed_A(projective_rep(q, "2"))
    s2 = embed_A(simple_rep(q, "2"))
    z1 = dup_category(q).cosyzygy(p1)[0]
    pp1, pp2 = proj_primed(q, "1"), proj_primed(q, "2")
    assert is_tilting_module(q, [pp1, pp2, p1, p2]).passed
    assert is_tilting_module(q, [pp1, pp2, s2, z1]).passed
    verdict = is_tilting_module(q, [p1, p2, s2, z1])
    assert not verdict.passed
    assert any("Ext" in f for f in verdict.failures)
    assert any("projective-injective" in f for f in verdict.failures)


def test_pd_two_summand_fails_the_first_axiom_and_has_no_ext1():
    """An entry of ind of the duplicated algebra of A2 with projective
    dimension 2: a module with it as a summand fails the tilting axioms with
    a failure naming that pd and none for Ext^1 from it, and
    ``DupCatalog.ext1_dim`` from it raises CatalogError, because the AR
    formula on the hom table holds only from a source of pd <= 1."""
    q = a_n(2)
    cat = knit_ind_dup(q)
    k = cat.pd_table.index(False)
    p1 = embed_A(projective_rep(q, "1"))
    verdict = is_tilting_module(q, [cat.entries[k], p1, proj_primed(q, "1"), proj_primed(q, "2")])
    assert not verdict.passed
    assert "summand 0 has projective dimension 2" in verdict.failures
    assert not any(f.startswith("Ext^1(summand 0,") for f in verdict.failures)
    for j in range(len(cat.entries)):
        with pytest.raises(CatalogError, match=f"entry {k}: its projective dimension is 2"):
            cat.ext1_dim(k, j)


def test_enumerate_l_tilting_pentagon():
    q = a_n(2)
    records = enumerate_L_tilting(q)
    assert len(records) == 5
    images = {frozenset(pi_bar(q, m) for m in rec.free) for rec in records}
    assert len(images) == 5
    for rec in records:
        assert is_tilting_module(q, list(rec.summands)).passed


def test_enumerate_l_tilting_a1():
    records = enumerate_L_tilting(a_n(1))
    assert len(records) == 2


def test_verify_bijection_small():
    for q in (a_n(1), a_n(2)):
        rep = verify_bijection(q)
        assert rep.matched, rep.witnesses
        assert rep.left_count == rep.right_count == expected_count(classify_dynkin(q))


def test_cluster_objects_are_values():
    """On D4 each object of the fundamental domain equals a fresh object
    with equal fields, hashes as the tuple of its fields and prints in the
    ``ClusterObject(quiver=..., kind=..., key=...)`` form: the frozenset
    and sorted-string witnesses of the bijection are made of these."""
    q = d4_subspace()
    domain = fundamental_domain(q)
    for o in domain:
        twin = ClusterObject(Quiver(q.vertices, q.arrows), o.kind, o.key)
        assert twin == o and not twin != o and twin.quiver is not o.quiver
        assert hash(twin) == hash(o) == hash((o.quiver, o.kind, o.key))
        assert str(o) == repr(o) == f"ClusterObject(quiver={o.quiver!r}, kind={o.kind!r}, key={o.key!r})"
    assert len(set(domain)) == len(domain)


def _bijection_by_frozensets(q):
    """(matched, right count, witnesses) of the bijection with every set a
    frozenset of cluster objects: the comparison the bit masks replaced."""
    records, cluster_side = tilting.enumerate_L_tilting(q), tilting.enumerate_cluster_tilting(q)
    cluster_sets = {frozenset(s) for s in cluster_side}
    domain = {o: o for o in fundamental_domain(q)}
    witnesses, images = [], set()
    for rec in records:
        img = frozenset(domain.get(o, o) for o in (tilting.pi_bar(q, m) for m in rec.free))
        if len(img) != len(rec.free):
            witnesses.append(f"projection not injective on {rec.free}")
        if img in images:
            witnesses.append(f"two tilting modules project to {sorted(map(str, img))}")
        images.add(img)
    witnesses += [f"projected set not cluster-tilting: {img}" for img in images - cluster_sets]
    witnesses += [f"cluster-tilting set not hit: {extra}" for extra in cluster_sets - images]
    return not witnesses and len(records) == len(cluster_sets), len(cluster_sets), sorted(witnesses)


@pytest.mark.parametrize("tamper", ["none", "set dropped", "outside the domain", "one object"])
def test_bijection_by_masks_equals_frozensets(monkeypatch, tamper):
    """On A3, the bijection compared by bit masks reports what the
    comparison of frozensets reports, witness for witness: as it is, with
    the cluster side missing its last set, with one summand projected
    outside the fundamental domain, and with every summand projected to one
    object."""
    q = a_n(3)
    side, first = enumerate_cluster_tilting(q), enumerate_L_tilting(q)[0].free[0]
    inner = tilting.pi_bar
    if tamper == "set dropped":
        monkeypatch.setattr(tilting, "enumerate_cluster_tilting", lambda q: side[:-1])
    if tamper == "outside the domain":
        monkeypatch.setattr(tilting, "pi_bar", lambda q, m: shifted_projective(q, "9") if m is first else inner(q, m))
    if tamper == "one object":
        monkeypatch.setattr(tilting, "pi_bar", lambda q, m: side[0][0])
    rep = verify_bijection(q)
    matched, right, witnesses = _bijection_by_frozensets(q)
    assert (rep.matched, rep.right_count, sorted(rep.witnesses)) == (matched, right, witnesses)
    assert matched == (tamper == "none") and bool(witnesses) != matched


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
    objects = fundamental_domain(q)
    table = [[ext1_cluster_dim(o, p) == 0 for p in objects] for o in objects]
    want = [tuple(objects[i] for i in c) for c in _backtrack_cliques(table, n)]
    assert enumerate_cluster_tilting(q) == want
    candidates = sorted(
        left_part_catalog(q).non_proj_inj_members(),
        key=lambda m: (m.total_dim(), dim_vectors(m)),
    )
    ctx = dup_category(q)
    table = [[ext1_by_bases(ctx, a, b) == 0 == ext1_by_bases(ctx, b, a) for b in candidates] for a in candidates]
    want = [tuple(candidates[i] for i in c) for c in _backtrack_cliques(table, n)]
    assert [r.free for r in enumerate_L_tilting(q)] == want
    assert len(want) == expected_count(classify_dynkin(q))
