import subprocess
import sys

import pytest

from dupcat import hereditary, session
from dupcat.dup import dup_category, knit_ind_dup
from dupcat.errors import CapExceededError, CatalogError
from dupcat.fixtures import a_n, d4_subspace, kronecker
from dupcat.hereditary import injective_rep, knit_ind_A, path_category
from dupcat.quiver import classify_dynkin, parse_quiver, paths_into
from dupcat import reps
from dupcat.linalg import RMatrix, coordinates_in_span
from dupcat.reps import RepMap, hom_basis, identity_map, is_isomorphic, sum_rep
from oracles import ext1_by_bases, hom_dim_by_rank, is_surjective


def positive_root_count(dynkin) -> int:
    """Number of positive roots, i.e. |ind A|, per Dynkin family: the
    closed-form oracle for the size of the knitted catalog."""
    fam, n = dynkin.family, dynkin.rank
    if fam == "A":
        return n * (n + 1) // 2
    if fam == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def _nakayama_map(cat, f):
    """Functorial action of D Hom(-, A) on a morphism f, in the bases of
    Hom(-, P_z) that ``nak_data`` keeps."""
    nu_m, bases_m = cat.nak_data(f.source)
    nu_n, bases_n = cat.nak_data(f.target)
    mats = {}
    for z in cat.quiver.vertices:
        flat_m = [b.flatten() for b in bases_m[z]]
        cols = [coordinates_in_span(flat_m, b.compose(f).flatten()) if flat_m else () for b in bases_n[z]]
        assert None not in cols
        mats[z] = RMatrix.from_columns(cols, nu_m.dims[z]).transpose()
    return RepMap(nu_m, nu_n, mats)


def dims(rep):
    return rep.dim_vector()


def test_standard_reps_a2():
    s = path_category(a_n(2))
    assert dims(s.proj["2"]) == (1, 1)
    assert dims(s.proj["1"]) == (1, 0) == dims(s.simple["1"])
    assert dims(s.inj["1"]) == (1, 1)
    assert dims(s.inj["2"]) == (0, 1)


def _injective_on_paths(q, x):
    """The injective at x on the paths ending at x, each arrow stripping
    the first arrow of a path: the oracle for the dual construction."""
    table = paths_into(q, x)
    dim = {v: len(table[v]) for v in q.vertices}
    index = {v: {p: i for i, p in enumerate(table[v])} for v in q.vertices}
    mats = {}
    for a in q.arrows:
        u, v = a.source, a.target
        m = [[0] * dim[u] for _ in range(dim[v])]
        for j, p in enumerate(table[u]):
            if p and p[0] == a.name:
                m[index[v][p[1:]]][j] = 1
        mats[a.name] = RMatrix(m, dim[v], dim[u])
    return dim, mats


def test_injective_rep_matches_the_path_basis(fixture_dir):
    """D P_x over the opposite quiver has the very matrices of the injective
    on the paths ending at x, at every vertex of every fixture (E8
    included), A5 zigzag and A6."""
    quivers = [parse_quiver(f.read_text(encoding="utf-8")) for f in sorted(fixture_dir.glob("*.quiver"))]
    quivers += [a_n(5, "zigzag"), a_n(6)]
    checked = 0
    for q in quivers:
        for x in q.vertices:
            i = injective_rep(q, x)
            assert (i.dims, i.mats) == _injective_on_paths(q, x)
            checked += 1
    assert checked == 51


def test_standard_reps_a1_and_d4():
    s1 = path_category(a_n(1))
    assert dims(s1.simple["1"]) == dims(s1.proj["1"]) == dims(s1.inj["1"])
    sd = path_category(d4_subspace())
    assert dims(sd.proj["2"]) == (1, 1, 0, 0)
    assert dims(sd.inj["1"]) == (1, 1, 1, 1)
    assert dims(sd.proj["1"]) == (1, 0, 0, 0)


def test_hom_dims_a2():
    s = path_category(a_n(2))
    assert hom_dim_by_rank(s.proj["1"], s.proj["2"]) == 1
    assert hom_dim_by_rank(s.simple["2"], s.proj["1"]) == 0
    assert hom_dim_by_rank(s.proj["2"], s.simple["2"]) == 1


def test_ext1_a2():
    s = path_category(a_n(2))
    assert ext1_by_bases(s, s.simple["2"], s.proj["1"]) == 1
    assert ext1_by_bases(s, s.proj["2"], s.simple["2"]) == 0
    assert ext1_by_bases(s, s.proj["1"], s.simple["1"]) == 0
    assert ext1_by_bases(s, s.simple["2"], s.simple["2"]) == 0


def test_tau_pair_a2():
    s = path_category(a_n(2))
    assert is_isomorphic(s.tau(s.simple["2"]), s.proj["1"])
    assert s.tau_inv(s.simple["2"]) is None  # S2 = I2 is injective
    assert s.tau(s.proj["1"]) is None
    assert is_isomorphic(s.tau_inv(s.proj["1"]), s.simple["2"])


def test_nakayama_sends_projectives_to_injectives():
    for q in (a_n(2), a_n(3), a_n(3, "zigzag"), d4_subspace()):
        s = path_category(q)
        for x in q.vertices:
            assert is_isomorphic(s.nakayama(s.proj[x]), s.inj[x])


def test_nakayama_functorial():
    q = a_n(3)
    s = path_category(q)
    p3, p2, p1 = s.proj["3"], s.proj["2"], s.proj["1"]
    (f,) = hom_basis(p1, p2)
    (g,) = hom_basis(p2, p3)
    lhs = _nakayama_map(s, g.compose(f))
    rhs = _nakayama_map(s, g).compose(_nakayama_map(s, f))
    assert all(lhs.mats[v] == rhs.mats[v] for v in q.vertices)
    ident = _nakayama_map(s, identity_map(p2))
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
    """Every almost split sequence of both catalogs, on A3 and D4, is a short
    exact sequence of module maps whose middle term is the direct sum of the
    sources of the arrows into its end."""
    for q in (a_n(3), d4_subspace()):
        for category, cat in ((path_category(q), knit_ind_A(q)), (dup_category(q), knit_ind_dup(q).catalog)):
            non_injective = [i for i, f in enumerate(cat.injective) if not f]
            assert set(cat.tau_inv_of) == set(non_injective)
            assert set(cat.sequences) == set(cat.tau_of)
            for tgt, seq in cat.sequences.items():
                left = cat.entries[seq.left]
                right = cat.entries[tgt]
                for h in (seq.f, seq.g):
                    RepMap(h.source, h.target, h.mats)  # the squares commute
                assert seq.f.source is left and seq.g.target is right
                assert seq.f.is_injective()
                assert is_surjective(seq.g)
                assert seq.g.compose(seq.f).is_zero()
                assert (
                    seq.middle_rep.total_dim() == left.total_dim() + right.total_dim()
                )
                # middle = direct sum of arrow sources into tgt
                assert list(seq.middle) == [(s, m) for s, t, m in cat.arrows if t == tgt]
                summands = []
                for sidx, mult in seq.middle:
                    summands.extend([cat.entries[sidx]] * mult)
                total = sum_rep(summands)
                # both sides decomposable: compare Krull-Schmidt multiplicities
                middle = category.decompose(seq.middle_rep, cat)
                assert middle == category.decompose(total, cat) == list(seq.middle)


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
                assert ext1_by_bases(ctx, m, n) == hom_dim_by_rank(n, tm)


def test_is_isomorphic_examples():
    s = path_category(a_n(2))
    catalog = s.knit()
    assert s.iso(s.proj["2"], s.inj["1"])
    sum_simples = sum_rep([s.simple["1"], s.simple["2"]])
    assert not s.iso(sum_simples, s.proj["2"])
    # two decomposable sides compare by their Krull-Schmidt multiplicities
    swapped = sum_rep([s.simple["2"], s.simple["1"]])
    assert s.decompose(sum_simples, catalog) == s.decompose(swapped, catalog)
    assert s.decompose(sum_simples, catalog) != s.decompose(s.proj["2"], catalog)
    # the split_pair route is exact when either side is indecomposable
    for m, n in ((sum_simples, s.proj["2"]), (s.proj["2"], sum_simples)):
        assert not reps.is_isomorphic(m, n)
    assert reps.is_isomorphic(s.proj["2"], s.inj["1"])


def test_structure_of_projective():
    q = a_n(2)
    ctx = path_category(q)
    rad, _ = ctx.radical(ctx.proj["2"])
    assert rad.dim_vector() == (1, 0)
    top, _ = ctx.top(ctx.proj["2"])
    assert top.dim_vector() == (0, 1)
    soc, _ = ctx.socle(ctx.proj["2"])
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


def test_knit_cap_counts_the_projectives():
    """Two vertices and no arrows: the two projectives alone pass cap 1, on
    the first knit as on every later one."""
    q = parse_quiver("vertices 1 2\n")
    for _ in range(2):
        with pytest.raises(CapExceededError):
            knit_ind_A(q, cap=1)
    assert len(knit_ind_A(q, cap=2).entries) == 2


def test_failed_knit_is_not_kept():
    for _ in range(2):
        with pytest.raises(CapExceededError):
            knit_ind_A(kronecker(), cap=10)


_BAD_PATH_PROJECTIVE = """
from dupcat import hereditary, reps
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n

inner = hereditary.projective_rep
hereditary.projective_rep = lambda q, x: reps.sum_rep([inner(q, x)] * 2)
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
        hereditary, "projective_rep", lambda q, x: sum_rep([inner(q, x)] * 2)
    )
    with pytest.raises(CatalogError, match="1-dimensional"):
        path_category(a_n(2))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_PATH_PROJECTIVE],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
