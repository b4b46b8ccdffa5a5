import subprocess
import sys

import pytest

from dupcat import hereditary, session
from dupcat.errors import CapExceededError, CatalogError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.hereditary import (
    INJECTIVE,
    PROJECTIVE,
    ext1_dim,
    hom_dim,
    knit_ind_A,
    nakayama,
    nakayama_map,
    path_category,
    positive_root_count,
    standard_reps,
    tau_pair,
)
from dupcat.quiver import classify_dynkin
from dupcat import reps
from dupcat.reps import direct_sum, hom_basis, identity_map, is_isomorphic


def dims(rep):
    return rep.dim_vector()


def test_standard_reps_a2():
    s = standard_reps(a_n(2))
    assert dims(s.projective["2"]) == (1, 1)
    assert dims(s.projective["1"]) == (1, 0) == dims(s.simple["1"])
    assert dims(s.injective["1"]) == (1, 1)
    assert dims(s.injective["2"]) == (0, 1)


def test_standard_reps_a1_and_d4():
    s1 = standard_reps(a_n(1))
    assert dims(s1.simple["1"]) == dims(s1.projective["1"]) == dims(s1.injective["1"])
    sd = standard_reps(d4_subspace())
    assert dims(sd.projective["2"]) == (1, 1, 0, 0)
    assert dims(sd.injective["1"]) == (1, 1, 1, 1)
    assert dims(sd.projective["1"]) == (1, 0, 0, 0)


def test_hom_dims_a2():
    s = standard_reps(a_n(2))
    assert hom_dim(s.projective["1"], s.projective["2"]) == 1
    assert hom_dim(s.simple["2"], s.projective["1"]) == 0
    assert hom_dim(s.projective["2"], s.simple["2"]) == 1


def test_ext1_a2():
    s = standard_reps(a_n(2))
    assert ext1_dim(s.simple["2"], s.projective["1"]) == 1
    assert ext1_dim(s.projective["2"], s.simple["2"]) == 0
    assert ext1_dim(s.projective["1"], s.simple["1"]) == 0
    assert ext1_dim(s.simple["2"], s.simple["2"]) == 0


def test_tau_pair_a2():
    s = standard_reps(a_n(2))
    tp = tau_pair(s.simple["2"])
    assert is_isomorphic(tp.tau, s.projective["1"])
    assert tp.tau_inv is INJECTIVE  # S2 = I2 is injective
    tp1 = tau_pair(s.projective["1"])
    assert tp1.tau is PROJECTIVE
    assert is_isomorphic(tp1.tau_inv, s.simple["2"])


def test_nakayama_sends_projectives_to_injectives():
    for q in (a_n(2), a_n(3), a_n(3, "zigzag"), d4_subspace()):
        s = standard_reps(q)
        for x in q.vertices:
            assert is_isomorphic(nakayama(s.projective[x]), s.injective[x])


def test_nakayama_functorial():
    q = a_n(3)
    s = standard_reps(q)
    p3, p2, p1 = s.projective["3"], s.projective["2"], s.projective["1"]
    (f,) = hom_basis(p1, p2)
    (g,) = hom_basis(p2, p3)
    lhs = nakayama_map(g.compose(f))
    rhs = nakayama_map(g).compose(nakayama_map(f))
    assert all(lhs.mats[v] == rhs.mats[v] for v in q.vertices)
    ident = nakayama_map(identity_map(p2))
    assert ident.is_isomorphism()


def test_knit_counts():
    assert len(knit_ind_A(a_n(1)).entries) == 1
    cat2 = knit_ind_A(a_n(2))
    assert sorted(e.dim_vector() for e in cat2.entries) == [(0, 1), (1, 0), (1, 1)]
    assert len(knit_ind_A(a_n(3)).entries) == 6
    assert len(knit_ind_A(a_n(3, "zigzag")).entries) == 6
    assert len(knit_ind_A(d4_subspace()).entries) == 12
    for q in (a_n(2), a_n(3), a_n(4), d4_subspace()):
        assert len(knit_ind_A(q).entries) == positive_root_count(classify_dynkin(q))


def test_knit_kronecker_cap():
    with pytest.raises(CapExceededError):
        knit_ind_A(kronecker(), cap=25)


def test_ar_sequences_exact_and_middle_matches_arrows():
    for q in (a_n(3), d4_subspace()):
        cat = knit_ind_A(q)
        non_injective = [i for i, f in enumerate(cat.injective) if not f]
        assert set(cat.tau_inv_of) == set(non_injective)
        for tgt, seq in cat.sequences.items():
            left = cat.entries[seq.left]
            right = cat.entries[tgt]
            assert seq.f.is_injective()
            assert seq.g.is_surjective()
            assert seq.g.compose(seq.f).is_zero()
            assert (
                seq.middle_rep.total_dim() == left.total_dim() + right.total_dim()
            )
            # middle = direct sum of arrow sources into tgt
            summands = []
            for sidx, mult in seq.middle:
                summands.extend([cat.entries[sidx]] * mult)
            total, _, _ = direct_sum(summands)
            assert is_isomorphic(seq.middle_rep, total)


def test_ar_formula_on_fixtures():
    # dim Ext^1(M, N) = dim Hom(N, tau M) for M non-projective (hereditary)
    for q in (a_n(2), a_n(3), d4_subspace()):
        cat = knit_ind_A(q)
        ctx = path_category(q)
        for i, m in enumerate(cat.entries):
            if cat.projective[i]:
                continue
            tm = ctx.tau(m)
            for n in cat.entries:
                assert ctx.ext1_dim(m, n) == ctx.hom_dim(n, tm)


def test_is_isomorphic_examples():
    s = standard_reps(a_n(2))
    assert is_isomorphic(s.projective["2"], s.injective["1"])
    sum_simples, _, _ = direct_sum([s.simple["1"], s.simple["2"]])
    assert not is_isomorphic(sum_simples, s.projective["2"])
    assert is_isomorphic(sum_simples, sum_simples)
    # the split_pair route is exact when either side is indecomposable
    for m, n in ((sum_simples, s.projective["2"]), (s.projective["2"], sum_simples)):
        assert not reps.is_isomorphic(m, n, assume_indecomposable=True)
    assert reps.is_isomorphic(s.projective["2"], s.injective["1"], assume_indecomposable=True)


def test_structure_of_projective():
    q = a_n(2)
    ctx = path_category(q)
    s = standard_reps(q)
    rad, _ = ctx.radical(s.projective["2"])
    assert rad.dim_vector() == (1, 0)
    top, _ = ctx.top(s.projective["2"])
    assert top.dim_vector() == (0, 1)
    soc, _ = ctx.socle(s.projective["2"])
    assert soc.dim_vector() == (1, 0)


def test_pd_hereditary_at_most_one():
    q = d4_subspace()
    ctx = path_category(q)
    for m in knit_ind_A(q).entries:
        assert ctx.pd(m) <= 1


def test_knit_is_kept_per_category():
    q = d4_subspace()
    cat = knit_ind_A(q)
    assert knit_ind_A(q) is cat
    assert len(cat.entries) == 12
    # the kept catalog still answers a lower cap as a fresh knit would
    with pytest.raises(CapExceededError):
        knit_ind_A(q, cap=5)
    assert knit_ind_A(q, cap=12) is cat


def test_failed_knit_is_not_kept():
    for _ in range(2):
        with pytest.raises(CapExceededError):
            knit_ind_A(kronecker(), cap=10)


_BAD_PATH_PROJECTIVE = """
from dupcat import hereditary, reps
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n

inner = hereditary.projective_rep
hereditary.projective_rep = lambda q, x: reps.direct_sum([inner(q, x)] * 2)[0]
try:
    hereditary.path_category(a_n(2))
except CatalogError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_path_category_rejects_a_projective_without_simple_top(monkeypatch, src_env):
    """A standard projective 2-dimensional at its vertex raises CatalogError,
    also under python -O."""
    inner = hereditary.projective_rep
    monkeypatch.setattr(session, "_sessions", {})
    monkeypatch.setattr(
        hereditary, "projective_rep", lambda q, x: direct_sum([inner(q, x)] * 2)[0]
    )
    with pytest.raises(CatalogError, match="1-dimensional"):
        path_category(a_n(2))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_PATH_PROJECTIVE],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
