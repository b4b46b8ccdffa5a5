"""Representation-level invariants raise typed errors (kept under python -O),
split_pair solves only the Hom spaces its verdict needs, the has_section
helper decides split epimorphisms exactly, and is_isomorphic agrees with
the split_pair route."""

import random

import pytest

from dupcat import reps
from dupcat.errors import CatalogError
from dupcat.dup import dup_category
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import path_category, projective_rep, simple_rep
from dupcat.linalg import RMatrix, coordinates_in_span, solve_matrix
from dupcat.reps import (
    Rep,
    RepMap,
    cokernel,
    hom_basis,
    identity_map,
    is_isomorphic,
    kernel,
    split_pair,
    sum_rep,
)
from oracles import is_surjective, projections, structure_maps


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
        sum_rep([])


def test_structure_maps_of_a_sum_are_its_biproduct_maps():
    """The projection onto part i after the injection of part j is the
    identity when i = j and zero otherwise, and the injections are
    checked module maps."""
    q = d4_subspace()
    parts = [projective_rep(q, "2"), simple_rep(q, "1"), projective_rep(q, "2")]
    total = sum_rep(parts)
    injections = structure_maps(parts, total)
    for i, p in enumerate(projections(parts, total)):
        for j, inj in enumerate(injections):
            RepMap(inj.source, inj.target, inj.mats)  # the squares commute
            composite = p.compose(inj)
            if i == j:
                assert all(composite.mats[v] == RMatrix.identity(parts[i].dims[v]) for v in q.vertices)
            else:
                assert composite.is_zero()


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


def has_section(g: RepMap) -> bool:
    """Decide whether g: e -> c is a split epimorphism.

    Exact: g has a section iff id_c lies in the span of {g.h : h in Hom(c, e)},
    because h |-> g.h is linear.
    """
    c = g.target
    if c.is_zero():
        return True
    composites = [g.compose(h).flatten() for h in hom_basis(c, g.source)]
    return coordinates_in_span(composites, identity_map(c).flatten()) is not None


def test_has_section_on_direct_sum_projections():
    q = d4_subspace()
    p2, s1, s3 = projective_rep(q, "2"), simple_rep(q, "1"), simple_rep(q, "3")
    parts = [p2, s1, s3]
    assert all(has_section(g) for g in projections(parts, sum_rep(parts)))
    # P_2 -> S_2 is onto but not split; S_1 -> 0 splits trivially
    _, top = cokernel(path_category(q).radical(p2)[1])
    assert not has_section(top)
    assert has_section(reps.zero_map(s1, reps.zero_rep(q)))


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
def test_has_section_false_on_almost_split_sequences(category):
    catalog = category(d4_subspace()).knit()
    assert catalog.sequences
    for seq in catalog.sequences.values():
        assert is_surjective(seq.g)
        assert not has_section(seq.g)


# -- is_isomorphic against the split_pair route --------------------------------


def _split_pair_iso(m, n):
    """The split_pair route: m = n iff the dimension vectors agree and m
    splits off n (both zero counts as isomorphic)."""
    if m.dim_vector() != n.dim_vector():
        return False
    return m.total_dim() == 0 or split_pair(m, n) is not None


def _twin(m):
    """A distinct object with the content of m."""
    return Rep(m.quiver, dict(m.dims), dict(m.mats))


def _conjugate(m, rng):
    """m with its basis at every vertex changed by a random invertible
    integer matrix g_v: the arrow y -> x acts by g_x M_a g_y^-1."""
    g = {}
    for v in m.quiver.vertices:
        d = m.dims[v]
        while True:
            gv = RMatrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)], d, d)
            inv = solve_matrix(gv, RMatrix.identity(d))
            if inv is not None:
                g[v] = (gv, inv)
                break
    mats = {
        a.name: g[a.target][0] @ m.mats[a.name] @ g[a.source][1] for a in m.quiver.arrows
    }
    return Rep(m.quiver, dict(m.dims), mats)


def _semisimple(cat, m):
    """The direct sum of simples with the dimension vector of m."""
    parts = [cat.simple[v] for v in m.quiver.vertices for _ in range(m.dims[v])]
    return sum_rep(parts)


_CATALOGS = [
    pytest.param(lambda: path_category(d4_subspace()), id="D4"),
    pytest.param(lambda: dup_category(a_n(3)), id="dup-A3"),
]


@pytest.mark.parametrize("make", _CATALOGS)
def test_is_isomorphic_agrees_with_split_pair_on_catalog(make):
    cat = make()
    entries = cat.knit().entries
    rng = random.Random(3)
    pairs = 0
    for m in entries:
        others = [n for n in entries if n.dim_vector() == m.dim_vector()]
        others += [_twin(m), _conjugate(m, rng), _semisimple(cat, m)]
        for n in others:
            for a, b in ((m, n), (n, m)):
                want = _split_pair_iso(a, b)
                assert is_isomorphic(a, b) == want
                pairs += 1
        assert is_isomorphic(m, _twin(m)) and is_isomorphic(_conjugate(m, rng), m)
        simple = sum(m.dims.values()) == 1
        assert is_isomorphic(_semisimple(cat, m), m) == simple
    assert pairs >= 8 * len(entries)


def test_is_isomorphic_with_one_decomposable_side():
    q = a_n(2)  # 2 -> 1
    s1, s2, p2 = simple_rep(q, "1"), simple_rep(q, "2"), projective_rep(q, "2")
    s12 = sum_rep([s1, s2])
    s21 = sum_rep([s2, s1])
    assert s12.dim_vector() == p2.dim_vector()
    for a, b in ((s12, p2), (p2, s12), (s21, p2), (p2, s21)):
        assert not _split_pair_iso(a, b)
        assert not is_isomorphic(a, b)
    q = d4_subspace()
    p2 = projective_rep(q, "2")
    tops = sum_rep([simple_rep(q, "2"), path_category(q).radical(p2)[0]])
    assert tops.dim_vector() == p2.dim_vector()
    assert not is_isomorphic(tops, p2) and not is_isomorphic(p2, tops)
    assert not _split_pair_iso(tops, p2) and not _split_pair_iso(p2, tops)


def test_sub_from_subspaces_refuses_an_image_outside_a_zero_subspace():
    """An arrow into a zero subspace is stable only when its image is zero."""
    q = a_n(2)  # 2 -> 1
    p2 = projective_rep(q, "2")
    with pytest.raises(ValueError, match="not stable"):
        reps.sub_from_subspaces(p2, {"1": RMatrix.zeros(1, 0), "2": RMatrix.identity(1)})
    sub, incl = reps.sub_from_subspaces(p2, {"1": RMatrix.identity(1), "2": RMatrix.zeros(1, 0)})
    assert sub.dim_vector() == (1, 0) and incl.is_injective()


def test_map_algebra_works_only_on_the_support(monkeypatch):
    """Composites, sums, kernels and cokernels of the maps between the D4
    indecomposables compute no product with an empty result: a block where
    the source or the target is zero is never multiplied."""
    entries = path_category(d4_subspace()).knit().entries
    bases = {(i, j): hom_basis(m, n) for i, m in enumerate(entries) for j, n in enumerate(entries)}
    empty = []
    inner = RMatrix.__matmul__

    def counting(a, b):
        if 0 in (a.rows, b.cols):
            empty.append((a.rows, b.cols))
        return inner(a, b)

    monkeypatch.setattr(RMatrix, "__matmul__", counting)
    maps = []
    for (_, j), fs in bases.items():
        for f in fs:
            maps += [f, f.add(f), f.scale(2), kernel(f)[1], cokernel(f)[1]]
            maps += [g.compose(f) for k in range(len(entries)) for g in bases[(j, k)]]
    assert maps and empty == []
