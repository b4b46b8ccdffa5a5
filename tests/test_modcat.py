"""The module-category engine: Yoneda maps by evaluation at the generator,
one direct sum per list of projectives, and every module fact that is read
again (presentation, tau^{-1}, Nakayama image) once per module content."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dupcat import cli, fixtures, modcat, reps, session
from dupcat.dup import dup_category
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import path_category, projective_rep, simple_rep
from dupcat.linalg import RMatrix, coordinates_in_span, rank, solve_matrix
from dupcat.quiver import Quiver, parse_quiver
from dupcat.reps import Rep
import oracles
from oracles import ext1_by_bases, hom_dim_by_rank, projections, rebuilt

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _yoneda_by_hom_solve(cat, z, n, vec):
    """The map P_z -> n with generator |-> vec, found in a basis of Hom(P_z, n)."""
    basis = reps.hom_basis(cat.proj[z], n)
    assert len(basis) == n.dims[z]
    cols = [(b.mats[z] @ cat.gen[z]).column_at(0) for b in basis]
    coeffs = coordinates_in_span(cols, vec.column_at(0))
    assert coeffs is not None
    out = reps.zero_map(cat.proj[z], n)
    for c, b in zip(coeffs, basis):
        out = out.add(b.scale(c))
    return out


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
def test_yoneda_map_matches_hom_solve(category):
    cat = category(d4_subspace())
    entries = cat.knit().entries
    checked = 0
    for z in cat.quiver.vertices:
        for n in entries:
            d = n.dims[z]
            for k in range(d):
                vec = RMatrix.column([1 if i == k else 0 for i in range(d)])
                got = cat.yoneda_map(z, n, vec)
                want = _yoneda_by_hom_solve(cat, z, n, vec)
                assert got.source is cat.proj[z] and got.target is n
                assert got.mats == want.mats
                checked += 1
    assert checked == sum(e.total_dim() for e in entries)


def test_yoneda_map_rejects_representation_breaking_a_relation():
    """In the duplicated D4 algebra D[be].al' = 0 (P_2' vanishes at 3); a
    representation with both arrows the identity has no map from P_2'
    sending the generator to 1: the commuting-square check refuses it."""
    cat = dup_category(d4_subspace())
    assert cat.proj["2'"].dims["3"] == 0
    one = RMatrix.identity(1)
    bad = Rep(cat.quiver, {"2'": 1, "1'": 1, "3": 1}, {"al'": one, "D[be]": one})
    with pytest.raises(ValueError, match="does not commute"):
        cat.yoneda_map("2'", bad, RMatrix.column([1]))


_ZERO_GENERATOR = """
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n
from dupcat.hereditary import injective_rep, projective_rep, simple_rep
from dupcat.linalg import RMatrix
from dupcat.modcat import ModuleCategory

q = a_n(2)  # 2 -> 1
projectives = {x: (projective_rep(q, x), RMatrix.column([1])) for x in q.vertices}
projectives["2"] = (projectives["2"][0], RMatrix.column([0]))
injectives = {x: (injective_rep(q, x), RMatrix([[1]], 1, 1)) for x in q.vertices}
simples = {x: simple_rep(q, x) for x in q.vertices}
cat = ModuleCategory(q, projectives, injectives, simples)
try:
    cat.yoneda_map("2", cat.proj["2"], RMatrix.column([1]))
except CatalogError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_zero_generator_raises_catalog_error(src_env):
    """A projective whose generator is a zero column does not generate it:
    the frame check raises CatalogError, also under python -O."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _ZERO_GENERATOR],
            env=src_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.stderr)


def test_covers_with_equal_top_vertices_share_the_sum():
    cat = path_category(d4_subspace())
    first = cat.cover(simple_rep(cat.quiver, "2"))
    second = cat.cover(projective_rep(cat.quiver, "2"))
    assert [z for z, _ in first.parts] == [z for z, _ in second.parts] == ["2"]
    assert first.p0 is second.p0


def test_one_dual_per_module(monkeypatch):
    """From a cold session, the dual of a module is built once per content:
    a twin (equal dimension vector and matrices, another object) gets the
    tau^{-1} object kept for the first, so it is not dualized again.  The
    opposite category is built first: its standard modules are the duals
    of this one's, and they are not the category's duals of modules."""
    monkeypatch.setattr(session, "_sessions", {})
    cat = path_category(d4_subspace())
    cat.opposite()
    m = simple_rep(cat.quiver, "1")  # the simple at the sink is not injective
    twin = _twin(m)
    duals = []
    inner = reps.dualize

    def counting(rep, *args):
        duals.append(rep)
        return inner(rep, *args)

    monkeypatch.setattr(reps, "dualize", counting)
    for module in (m, twin):
        assert cat.tau_inv(module) is not None
    assert cat.tau_inv(twin) is cat.tau_inv(m)
    ids = [cat.content_id(r) for r in duals if r.quiver == cat.quiver]
    assert ids.count(cat.content_id(m)) == 1
    assert len(ids) == len(set(ids))


def test_frame_is_built_once_per_vertex():
    cat = path_category(d4_subspace())
    frame = cat._frame("2")
    assert cat._frame("2") is frame
    steps, order, _ = frame
    # P_2 of the subspace orientation: the generator at 2 and its image at 1
    assert steps == [("2", None, None), ("1", 0, "al")]
    assert {v: len(i) for v, i in order.items()} == {"1": 1, "2": 1, "3": 0, "4": 0}


# -- each Hom/Ext fact once per module pair ------------------------------------


def _d5():
    return Quiver(
        ["1", "2", "3", "4", "5"],
        [("a1", "2", "1"), ("a2", "3", "2"), ("a3", "4", "3"), ("a4", "5", "3")],
    )


def _scan_decompose(cat, e, candidates):
    """The full scan the indexed try_decompose replaced: peel every
    candidate in order, as often as it splits off."""
    result = []
    current = e
    for idx, c in enumerate(candidates):
        if current.is_zero():
            break
        if c.total_dim() > current.total_dim():
            continue
        mult = 0
        while all(c.dims[v] <= current.dims[v] for v in cat.quiver.vertices):
            pair = reps.split_pair(c, current)
            if pair is None:
                break
            current, _ = reps.cokernel(pair[0])
            mult += 1
        if mult:
            result.append((idx, mult))
    return result, current


def _mixed(m: Rep) -> Rep:
    """m under a fixed base change g_v at every vertex v (2 on the diagonal,
    1 above it): the arrow y -> x acts by g_x M_a g_y^-1, so a direct sum
    is no longer in block form."""
    g = {}
    for v, d in m.dims.items():
        gv = RMatrix([[2 if i == j else int(j > i) for j in range(d)] for i in range(d)], d, d)
        g[v] = (gv, solve_matrix(gv, RMatrix.identity(d)))
    mats = {a.name: g[a.target][0] @ m.mats[a.name] @ g[a.source][1] for a in m.quiver.arrows}
    return Rep(m.quiver, m.dims, mats)


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
@pytest.mark.parametrize("quiver", [d4_subspace, _d5], ids=["D4", "D5"])
def test_indexed_decomposition_equals_full_scan(category, quiver):
    """On every AR middle term, out of block form, and every projective
    radical, the indexed try_decompose finds the multiplicities of the full
    scan, and on the middle terms those of the sequence."""
    cat = category(quiver())
    catalog = cat.knit()
    middles = {idx: _mixed(seq.middle_rep) for idx, seq in catalog.sequences.items()}
    assert any(e.mats != catalog.sequences[idx].middle_rep.mats for idx, e in middles.items())
    modules = list(middles.values()) + [cat.radical(p)[0] for p in cat.proj.values()]
    for e in modules:
        got, residual = cat.try_decompose(e, catalog.entries, catalog.index)
        want, want_residual = _scan_decompose(cat, e, catalog.entries)
        assert got == want
        assert residual.is_zero() and want_residual.is_zero()
    assert all(cat.decompose(e, catalog) == list(catalog.sequences[idx].middle)
               for idx, e in middles.items())


def test_summand_outside_the_catalog_raises():
    cat = path_category(d4_subspace())
    catalog = cat.knit()
    last = len(catalog.entries) - 1
    short = rebuilt(catalog, entries=catalog.entries[:last])
    both = reps.sum_rep([catalog.entries[0], catalog.entries[last]])
    assert cat.decompose(both, catalog) == [(0, 1), (last, 1)]
    with pytest.raises(CatalogError, match="outside the catalog"):
        cat.decompose(both, short)
    mults, residual = cat.try_decompose(both, short.entries, short.index)
    assert mults == [(0, 1)]
    assert residual.dim_vector() == catalog.entries[last].dim_vector()


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
def test_ext1_memo_and_rank_hom_dim_match_bases(category):
    """On all D4 catalog pairs: the rank-based Hom dimension equals the
    basis computation, and Ext^1 kept in the hom table (read by the AR
    formula from a source of projective dimension <= 1) equals the cokernel
    computed from full bases."""
    cat = category(d4_subspace())
    catalog = cat.knit()
    entries = catalog.entries
    for i, m in enumerate(entries):
        for j, n in enumerate(entries):
            assert hom_dim_by_rank(m, n) == len(reps.hom_basis(m, n))
            if cat.pd(m) <= 1:
                assert catalog.ext1_by_tau(i, j) == ext1_by_bases(cat, m, n)


# -- projective dimension and exact isomorphism --------------------------------

_ENDLESS_SYZYGY = """
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import path_category
from dupcat.linalg import RMatrix
from dupcat.modcat import CoverData, ModuleCategory, Presentation

cat = path_category(d4_subspace())
calls = []


def endless(self, m):
    # the syzygy is m again, inside a cover m, topped by P_2 (dimension 2)
    calls.append(m)
    kernel = {v: RMatrix.identity(d) for v, d in m.dims.items()}
    return Presentation(CoverData([], m, None), kernel, [("2", None)])


ModuleCategory.presentation = endless
try:
    cat.pd(cat.simple["2"])
except CatalogError:
    raise SystemExit(0 if len(calls) == len(cat.quiver.vertices) else 2)
raise SystemExit(1)
"""


def test_endless_resolution_raises_after_n_steps(src_env):
    """A presentation whose syzygy never vanishes: pd raises CatalogError
    after as many steps as the quiver has vertices, also under python -O."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _ENDLESS_SYZYGY],
            env=src_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (flags, proc.returncode, proc.stderr)


def _invertible(data, d):
    """A drawn invertible integer d x d matrix (lower unitriangular times
    upper triangular) and its inverse."""
    entry = st.integers(-3, 3)
    lower = [[1 if i == j else data.draw(entry) if i > j else 0 for j in range(d)]
             for i in range(d)]
    upper = [[data.draw(st.sampled_from((1, -1, 2))) if i == j else data.draw(entry)
              if i < j else 0 for j in range(d)] for i in range(d)]
    g = RMatrix(lower, d, d) @ RMatrix(upper, d, d)
    return g, solve_matrix(g, RMatrix.identity(d))


def _base_change(data, m: Rep) -> Rep:
    """m under an invertible integer base change g_v at every vertex v: the
    arrow y -> x acts by g_x M_a g_y^-1."""
    g, g_inv = {}, {}
    for v, d in m.dims.items():
        g[v], g_inv[v] = _invertible(data, d)
    mats = {a.name: g[a.target] @ m.mats[a.name] @ g_inv[a.source] for a in m.quiver.arrows}
    return Rep(m.quiver, m.dims, mats)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize(
    "category, quiver", [(path_category, d4_subspace), (dup_category, lambda: a_n(3))],
    ids=["D4-path", "A3-dup"],
)
def test_is_isomorphic_decides_by_multiplicities(category, quiver, data):
    """Sums of catalog entries, one of them under a random base change, get
    equal multiplicities from ``decompose`` exactly when their multisets of
    entries are equal, so the multiplicities decide isomorphism; the drawn
    pairs include equal dimension vectors with different multisets (an
    entry traded for its composition factors)."""
    cat = category(quiver())
    catalog = cat.knit()
    index = st.integers(0, len(catalog.entries) - 1)
    first = data.draw(st.lists(index, min_size=1, max_size=3))
    how = data.draw(st.sampled_from(["permuted", "other", "factors"]))
    if how == "permuted":
        second = first
    elif how == "other":
        second = data.draw(st.lists(index, min_size=1, max_size=3))
    else:
        traded = catalog.entries[first[0]]
        second = first[1:] + [
            catalog.find(cat.simple[v]) for v, d in traded.dims.items() for _ in range(d)
        ]

    def direct_sum_of(indices):
        order = data.draw(st.permutations(indices))
        return reps.sum_rep([catalog.entries[i] for i in order])

    m, n = direct_sum_of(first), _base_change(data, direct_sum_of(second))
    same = cat.decompose(m, catalog) == cat.decompose(n, catalog)
    assert same == (sorted(first) == sorted(second))


def test_is_isomorphic_with_equal_dimension_vectors():
    """S_1 + S_2 and P_2 over A2 share a dimension vector; so do S_1 + ...
    + S_4 and I_1 (dimension vector (1, 1, 1, 1)) over D4.  ``iso`` tells
    the sum from the indecomposable side, and the multiplicities of two
    orders of the sum are equal."""
    a2, d4 = path_category(a_n(2)), path_category(d4_subspace())
    for cat, m in ((a2, a2.proj["2"]), (d4, d4.inj["1"])):
        catalog = cat.knit()
        simples = [cat.simple[v] for v, d in m.dims.items() for _ in range(d)]
        summed = reps.sum_rep(simples)
        assert summed.dim_vector() == m.dim_vector()
        assert not cat.iso(summed, m) and not cat.iso(m, summed)
        assert cat.decompose(summed, catalog) == cat.decompose(reps.sum_rep(simples[::-1]), catalog)


# -- one elimination for the radical and the complement ------------------------


def _greedy_complement(sub):
    """The standard basis vectors completing the column span of sub, picked
    one by one by rank."""
    d, chosen, current = sub.rows, [], sub
    for i in range(d):
        e = RMatrix.column([1 if k == i else 0 for k in range(d)])
        cand = RMatrix.hstack([current, e])
        if rank(cand) > rank(sub) + len(chosen):
            chosen.append(e)
            current = cand
    return chosen


def _greedy_radical_basis(stacked):
    """The columns of stacked independent of those before them, by rank."""
    current = RMatrix.zeros(stacked.rows, 0)
    for j in range(stacked.cols):
        cand = RMatrix.hstack([current, RMatrix.column(stacked.column_at(j))])
        if rank(cand) > current.cols:
            current = cand
    return current


@pytest.mark.parametrize(
    "category, quiver", [(path_category, d4_subspace), (dup_category, lambda: a_n(3))],
    ids=["D4-path", "A3-dup"],
)
def test_pivot_columns_equal_the_greedy_picks(category, quiver):
    """On every catalog entry, the radical and the completions of the
    arrow images and of the socle pick the columns the greedy rank loop
    picks."""
    cat = category(quiver())
    for e in cat.knit().entries:
        _, incl = cat.radical(e)
        for v in cat.quiver.vertices:
            images = cat._arrow_images(e, v)
            assert incl.mats[v] == _greedy_radical_basis(images)
            for sub in (images, cat._socle_basis(e, v)):
                assert cat._complement_columns(sub) == _greedy_complement(sub)


# -- facts kept per module content ---------------------------------------------


def _count_computations(monkeypatch):
    """Record the module of every cover, presentation and tau^{-1} the
    category computes."""
    computed = {"cover": [], "_presentation": [], "_tau_inv": []}
    for name, calls in computed.items():
        inner = getattr(modcat.ModuleCategory, name)

        def counting(self, m, _inner=inner, _calls=calls):
            _calls.append(m)
            return _inner(self, m)

        monkeypatch.setattr(modcat.ModuleCategory, name, counting)
    return computed


def _twin(m: Rep) -> Rep:
    return Rep(m.quiver, m.dims, m.mats)


@pytest.mark.parametrize(
    "category, quiver", [(path_category, d4_subspace), (dup_category, lambda: a_n(3))],
    ids=["D4-path", "A3-dup"],
)
def test_twins_share_every_fact(category, quiver, monkeypatch):
    """A twin of a catalog entry (same content, another object) gets the
    entry's presentation and tau^{-1} objects, with no cover, presentation
    or tau^{-1} computed, and the entry's Ext^1 dimensions."""
    cat = category(quiver())
    entries = cat.knit().entries
    facts = {
        id(e): (cat.presentation(e), cat.tau_inv(e),
                [(ext1_by_bases(cat, e, f), ext1_by_bases(cat, f, e)) for f in entries])
        for e in entries
    }
    computed = _count_computations(monkeypatch)
    for e in entries:
        t = _twin(e)
        pres, tau_inv, exts = facts[id(e)]
        assert t is not e and cat.content_id(t) == cat.content_id(e)
        assert cat.presentation(t) is pres and cat.tau_inv(t) is tau_inv
        assert [(ext1_by_bases(cat, t, f), ext1_by_bases(cat, f, t)) for f in entries] == exts
    assert computed == {"cover": [], "_presentation": [], "_tau_inv": []}


@pytest.mark.parametrize("fixture", ["d4", "e6"])
def test_fact_table_keeps_only_facts_read_again(fixture_dir, tmp_path, monkeypatch, capsys, fixture):
    """After the five commands in one cold session, no category's fact
    table holds a cover, dual, tau, isomorphism or generator-values fact,
    and every kind of fact the tables hold is read again at least once."""
    monkeypatch.setattr(session, "_sessions", {})
    cats, reads = {}, {}  # id -> category; kind -> lookups that found it kept
    inner = modcat.ModuleCategory._kept

    def kept(self, key, compute, *args):
        cats[id(self)] = self
        if key in self._facts:
            reads[key[0]] = reads.get(key[0], 0) + 1
        return inner(self, key, compute, *args)

    monkeypatch.setattr(modcat.ModuleCategory, "_kept", kept)
    path = fixture_dir / f"{fixture}.quiver"
    for command in ("analyze", "verify", "enumerate", "export", "emit-dot"):
        assert cli.main([command, "--quiver", str(path), "--out", str(tmp_path / command)]) == 0
    capsys.readouterr()
    kinds = {key[0] for cat in cats.values() for key in cat._facts}
    assert {"presentation", "tau_inv", "nakayama"} <= kinds
    assert not kinds & {"cover", "dual", "tau", "iso", "generator values"}
    assert [kind for kind in kinds if not reads.get(kind)] == []


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
def test_envelope_solves_no_hom_system(monkeypatch, category):
    """The envelope of every D4 catalog entry makes no ``hom_basis`` call."""
    cat = category(d4_subspace())
    entries = cat.knit().entries
    calls = []
    inner = reps.hom_basis

    def counting(m, n):
        calls.append((m, n))
        return inner(m, n)

    monkeypatch.setattr(reps, "hom_basis", counting)
    monkeypatch.setattr(modcat, "hom_basis", counting)
    for e in entries:
        parts, _, j = cat.envelope(e)
        assert parts and j.is_injective()
    assert calls == []


@pytest.mark.parametrize("fixture", ["d4", "e6"])
def test_envelope_maps_equal_the_hom_solve(fixture_dir, fixture):
    """On every entry of ind A and of ind of the duplicated algebra, the
    envelope by Yoneda in the opposite category has the parts, the sum and
    the map m -> I0 that the Hom-system route (``oracles.envelope``) gives."""
    q = parse_quiver((fixture_dir / f"{fixture}.quiver").read_text(encoding="utf-8"))
    checked = 0
    for cat in (path_category(q), dup_category(q)):
        for e in cat.knit().entries:
            parts, i0, j = cat.envelope(e)
            want_parts, want_i0, want_j = oracles.envelope(cat, e)
            assert parts == want_parts
            assert (i0.dims, i0.mats) == (want_i0.dims, want_i0.mats)
            assert j.mats == want_j.mats
            checked += 1
    assert checked == len(path_category(q).knit().entries) + len(dup_category(q).knit().entries)


def _base_change_at(data, m: Rep, v) -> Rep:
    """m under an invertible integer base change g at the vertex v alone:
    g M_a for the arrows into v, M_a g^-1 for the arrows out of v."""
    g, g_inv = _invertible(data, m.dims[v])
    if g == RMatrix.identity(g.rows):
        g = g_inv = g.scale(-1)
    mats = dict(m.mats)
    for a in m.quiver.arrows_into[v]:
        mats[a.name] = g @ mats[a.name]
    for a in m.quiver.arrows_from[v]:
        mats[a.name] = mats[a.name] @ g_inv
    return Rep(m.quiver, m.dims, mats)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize(
    "category, quiver", [(path_category, d4_subspace), (dup_category, lambda: a_n(3))],
    ids=["D4-path", "A3-dup"],
)
def test_changed_content_is_computed_afresh(category, quiver, data):
    """A base change at one vertex gives an isomorphic module with other
    content: in a cold session it gets its own id and computes its own
    presentation, and its Hom and Ext^1 dimensions against the catalog
    equal the entry's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session, "_sessions", {})
        cat = category(quiver())
        entries = cat.knit().entries
        e = data.draw(st.sampled_from(entries))
        # a vertex with a nonzero arrow, so that the base change moves it
        touched = sorted({v for a in cat.quiver.arrows if not e.mats[a.name].is_zero()
                          for v in (a.source, a.target)})
        assume(touched)
        v = data.draw(st.sampled_from(touched))
        changed = _base_change_at(data, e, v)
        assume(changed.mats != e.mats)
        assert cat.content_id(changed) != cat.content_id(e)
        kept = cat.presentation(e)
        computed = _count_computations(patch)
        assert cat.presentation(changed) is not kept
        assert computed["cover"][0] is changed
        for f in entries:
            assert len(cat.hom(changed, f)) == len(cat.hom(e, f))
            assert len(cat.hom(f, changed)) == len(cat.hom(f, e))
            assert ext1_by_bases(cat, changed, f) == ext1_by_bases(cat, e, f)
            assert ext1_by_bases(cat, f, changed) == ext1_by_bases(cat, f, e)


def test_different_modules_never_share_an_id():
    """S_1 + S_2 and the indecomposable P_2 over A2 share the dimension
    vector (1, 1) but not their content; over A1, which has no arrows, the
    dimension vector alone tells S_1 from S_1 + S_1."""
    a2 = path_category(a_n(2))
    summed = reps.sum_rep([a2.simple["1"], a2.simple["2"]])
    assert summed.dim_vector() == a2.proj["2"].dim_vector()
    assert a2.content_id(summed) != a2.content_id(a2.proj["2"])
    assert len(a2.hom(a2.proj["2"], summed)) != len(a2.hom(summed, summed))
    a1 = path_category(a_n(1))
    double = reps.sum_rep([a1.simple["1"]] * 2)
    assert a1.content_id(double) != a1.content_id(a1.simple["1"])
    assert len(a1.hom(double, double)) == 4


# -- facts read off the AR quiver ----------------------------------------------


@pytest.mark.parametrize(
    "category, quiver", [(path_category, d4_subspace), (dup_category, lambda: a_n(3))],
    ids=["D4-path", "A3-dup"],
)
def test_tau_inv_is_kept_per_content(category, quiver):
    """A repeated tau^{-1} returns one object, and so does a twin's."""
    cat = category(quiver())
    for e in cat.knit().entries:
        t = cat.tau_inv(e)
        assert cat.tau_inv(e) is t and cat.tau_inv(_twin(e)) is t


def _d4_orientation(bits) -> Quiver:
    """D4 with the arm arrow al, be or ga into the centre 1 where its bit is
    0, out of it where its bit is 1."""
    arms = zip(("al", "be", "ga"), ("2", "3", "4"), bits)
    return Quiver(["1", "2", "3", "4"], [(a, v, "1") if b == 0 else (a, "1", v) for a, v, b in arms])


_TAU_INV_QUIVERS = {
    "A1": lambda: a_n(1),
    "A2": lambda: a_n(2),
    "A3": lambda: a_n(3),
    "A3-zigzag": lambda: a_n(3, "zigzag"),
    "A4": lambda: a_n(4),
    **{
        "D4-" + "".join(map(str, bits)): lambda bits=bits: _d4_orientation(bits)
        for bits in itertools.product((0, 1), repeat=3)
    },
    "E6": lambda: parse_quiver((FIXTURE_DIR / "e6.quiver").read_text(encoding="utf-8")),
}


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
@pytest.mark.parametrize("name", sorted(_TAU_INV_QUIVERS))
def test_tau_inv_equals_the_opposite_algebra_route(category, name):
    """tau^{-1} through this category transposed equals, matrix for matrix,
    tau^{-1} through the category of the opposite quiver with its vertices
    and arrows renamed (``oracles.tau_inv_by_opposite_algebra``), on every
    entry of ind A and of the duplicated algebra, and is None on the same
    entries: the injective ones."""
    q = _TAU_INV_QUIVERS[name]()
    cat = category(q)
    ar = cat.knit()
    for k, e in enumerate(ar.entries):
        got, want = cat.tau_inv(e), oracles.tau_inv_by_opposite_algebra(category, q, e)
        assert (got is None) == (want is None) == ar.injective[k]
        if got is not None:
            assert got.dims == want.dims and got.mats == want.mats


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
def test_knit_keeps_ext1_of_each_sequence(category, monkeypatch):
    """For every almost split sequence of the D4 catalog, dim Ext^1(N, tau N)
    = 1, the value the knit's certificate (dim End(N) = 1 and a non-split
    sequence) proves, equals the cokernel computed from full bases."""
    monkeypatch.setattr(session, "_sessions", {})
    cat = category(d4_subspace())
    catalog = cat.knit()
    assert len(catalog.sequences) == len(catalog.entries) - len(cat.proj)
    for idx, seq in catalog.sequences.items():
        n, m = catalog.entries[idx], catalog.entries[seq.left]
        assert ext1_by_bases(cat, n, m) == 1


_MESH_MISMATCH = """
from dupcat import modcat
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n
from dupcat.hereditary import knit_ind_A

inner = modcat.ModuleCategory.decompose
modcat.ModuleCategory.decompose = lambda self, e, c: [(i, 2 * k) for i, k in inner(self, e, c)]
try:
    knit_ind_A(a_n(3))
except CatalogError as exc:
    raise SystemExit(0 if "mesh" in str(exc) else 2)
raise SystemExit(1)
"""


def test_mesh_mismatch_raises(monkeypatch, src_env):
    """Radical multiplicities that break the meshes make the knit raise
    CatalogError, also under python -O, and keep no catalog."""
    monkeypatch.setattr(session, "_sessions", {})
    inner = modcat.ModuleCategory.decompose
    monkeypatch.setattr(
        modcat.ModuleCategory, "decompose",
        lambda self, e, c: [(i, 2 * k) for i, k in inner(self, e, c)],
    )
    cat = path_category(a_n(3))
    with pytest.raises(CatalogError, match="mesh"):
        cat.knit()
    assert cat._catalog is None
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _MESH_MISMATCH],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_WRONG_COMPONENT = """
from dupcat import fixtures, reps
from dupcat.errors import CatalogError
from dupcat.hereditary import path_category

inner = reps.split_pair
calls = []


def zero_first(c, e):
    calls.append(c)
    f, g = inner(c, e)
    return (f.scale(0) if len(calls) == 1 else f), g


reps.split_pair = zero_first
cat = path_category(getattr(fixtures, {builder!r})(*{args!r}))
try:
    cat.knit()
except CatalogError as exc:
    raise SystemExit(0 if {message!r} in str(exc) and cat._catalog is None else 2)
raise SystemExit(1)
"""


@pytest.mark.parametrize("builder, args, message", [
    # 0 -> P_1 -> P_2 -> S_2 -> 0: a zero source map is not injective
    ("a_n", (3,), "ending at entry 3: the source map of entry 0 is not injective"),
    # 0 -> P_1 -> P_2 + P_3 + P_4 -> tau^-1 P_1 -> 0: the cokernel gains P_2
    ("d4_subspace", (), "ending at entry 4: the cokernel of the source map of entry 0 is not entry 4"),
], ids=["A3", "D4"])
def test_wrong_source_map_component_raises(monkeypatch, src_env, builder, args, message):
    """A zero inclusion P_1 -> P_2 = rad P_2 (the first split_pair of the
    knit, which decomposes no radical here) makes the knit raise
    CatalogError naming the sequence that uses it, also under python -O,
    and keep no catalog."""
    monkeypatch.setattr(session, "_sessions", {})
    inner, calls = reps.split_pair, []

    def zero_first(c, e):
        calls.append(c)
        f, g = inner(c, e)
        return (f.scale(0) if len(calls) == 1 else f), g

    monkeypatch.setattr(reps, "split_pair", zero_first)
    cat = path_category(getattr(fixtures, builder)(*args))
    with pytest.raises(CatalogError, match=message):
        cat.knit()
    assert cat._catalog is None
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_COMPONENT.format(builder=builder, args=args, message=message)],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_SHORT_TOP = """
from dupcat import modcat
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n
from dupcat.hereditary import path_category, simple_rep
from dupcat.reps import sum_rep

inner = modcat.ModuleCategory._complement_columns
modcat.ModuleCategory._complement_columns = lambda self, sub: inner(self, sub)[:1]
cat = path_category(a_n(3))
m = sum_rep([simple_rep(cat.quiver, "1")] * 2)
try:
    cat.presentation(m)
except CatalogError as exc:
    kept = ("presentation", cat.content_id(m)) in cat._facts
    raise SystemExit(0 if str(exc) == "projective cover not surjective" and not kept else 2)
raise SystemExit(1)
"""


def test_cover_with_a_top_cut_short_is_not_surjective(src_env):
    """S_1 + S_1 on A3 with one of its two top vectors dropped: the cover
    P_1 -> S_1 + S_1 is a module map but not onto, so the presentation,
    which reads the rank of q off its kernel, raises CatalogError and keeps
    nothing, also under python -O."""
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _SHORT_TOP], env=src_env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (flags, proc.stderr)


_HELD_COMPONENTS = """
from dupcat import modcat
from dupcat.dup import dup_category
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import path_category
from oracles import structure_maps

inner = modcat.ModuleCategory._almost_split
knits = {}  # id of the held dict -> (catalog, held)


def sequence(self, catalog, idx, middle, held):
    knits[id(held)] = (catalog, held)
    return inner(self, catalog, idx, middle, held)


modcat.ModuleCategory._almost_split = sequence
for q in (a_n(3, "zigzag"), d4_subspace()):
    path_category(q).knit()
    dup_category(q).knit()
compared = 0
for catalog, held in knits.values():
    assert set(catalog.sequences) == set(catalog.tau_of)
    for idx, seq in catalog.sequences.items():
        summands = [catalog.entries[t] for t, _ in seq.middle]
        for (t, _), inj in zip(seq.middle, structure_maps(summands, seq.middle_rep)):
            got, want = held[t, idx], seq.g.compose(inj)
            if got.source is not catalog.entries[t] or got.target is not catalog.entries[idx]:
                raise SystemExit(2)
            if got.mats != want.mats:
                raise SystemExit(3)
            compared += 1
raise SystemExit(0 if len(knits) == 4 and compared else 1)
"""


def test_held_components_are_g_after_the_injections(src_env):
    """On every almost split sequence of both catalogs of the A3 zigzag and
    of D4, each component E_t -> N the knit holds (sliced out of g's columns)
    equals g after the canonical injection of E_t into E, also under
    python -O."""
    env = dict(src_env, PYTHONPATH=os.pathsep.join([src_env["PYTHONPATH"], str(Path(__file__).parent)]))
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _HELD_COMPONENTS], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (flags, proc.returncode, proc.stderr)


_EXTRA_END_MAP = """
from dupcat import modcat
from dupcat.errors import CatalogError
from dupcat.fixtures import d4_subspace
from dupcat.dup import dup_category
from dupcat.hereditary import path_category

inner_sequence, inner_basis = modcat.ModuleCategory._almost_split, modcat.hom_basis
tampered = []


def sequence(self, catalog, idx, middle, held):
    if tampered:
        return inner_sequence(self, catalog, idx, middle, held)
    tampered.append(idx)
    modcat.hom_basis = lambda m, n: (lambda b: b + [b[0].scale(2)])(inner_basis(m, n))
    try:
        return inner_sequence(self, catalog, idx, middle, held)
    finally:
        modcat.hom_basis = inner_basis


modcat.ModuleCategory._almost_split = sequence
cat = {category}(d4_subspace())
try:
    cat.knit()
except CatalogError as exc:
    message = f"dim End(entry {{tampered[0]}}) is 2, not 1"
    raise SystemExit(0 if message in str(exc) and cat._catalog is None else 2)
raise SystemExit(1)
"""


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
def test_extra_end_map_fails_the_sequence_certificate(monkeypatch, src_env, category):
    """The first almost split sequence the D4 knit builds, with one extra map
    in its basis of Hom(coker f, N) (a multiple of the invertible one),
    makes the knit raise CatalogError naming dim End of that entry, also
    under python -O, and keep no catalog."""
    monkeypatch.setattr(session, "_sessions", {})
    inner_sequence, inner_basis = modcat.ModuleCategory._almost_split, modcat.hom_basis
    tampered = []

    def sequence(self, catalog, idx, middle, held):
        if tampered:
            return inner_sequence(self, catalog, idx, middle, held)
        tampered.append(idx)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modcat, "hom_basis", lambda m, n: (lambda b: b + [b[0].scale(2)])(inner_basis(m, n)))
            return inner_sequence(self, catalog, idx, middle, held)

    monkeypatch.setattr(modcat.ModuleCategory, "_almost_split", sequence)
    cat = category(d4_subspace())
    with pytest.raises(CatalogError) as caught:
        cat.knit()
    assert f"dim End(entry {tampered[0]}) is 2, not 1" in str(caught.value)
    assert cat._catalog is None
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _EXTRA_END_MAP.format(category=category.__name__)],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_empty_hom_span_holds_only_the_zero_map():
    """An empty span certifies the zero map, with no coordinates, and refuses
    a nonzero one."""
    p = path_category(a_n(2)).proj["2"]
    assert oracles._coords([], reps.zero_map(p, p), "postcomposition") == ()
    with pytest.raises(CatalogError, match="left the hom span"):
        oracles._coords([], reps.identity_map(p), "postcomposition")


def test_nakayama_refuses_a_postcomposition_outside_an_empty_span(monkeypatch):
    """On A2 (2 -> 1), m = P_1 + S_2 is no projective: the library refuses
    its Nakayama image, and the oracle solves for it in bases of
    Hom(m, P_z).  lambda: P_1 -> P_2 postcomposed with the projection
    m -> P_1 is nonzero, so with Hom(m, P_2) solved empty the oracle raises
    instead of giving (1, 0)."""
    monkeypatch.setattr(session, "_sessions", {})
    cat = path_category(a_n(2))
    m = reps.sum_rep([cat.proj["1"], cat.simple["2"]])
    with pytest.raises(CatalogError, match="only for the projectives"):
        cat.nak_data(m)
    solve = reps.hom_basis
    monkeypatch.setattr(reps, "hom_basis", lambda a, b: [] if b is cat.proj["2"] else solve(a, b))
    with pytest.raises(CatalogError, match="postcomposition left the hom span"):
        oracles.nak_data(cat, m)


def _tau_by_flattened_spans(cat, m):
    """tau m with every component of f1 composed with every Nakayama basis
    map as a whole module map, flattened, and solved for in the flattened
    Nakayama basis: the route the values at the generators replaced."""
    pres = oracles.presentation(cat, m)
    f1 = pres.incl.compose(pres.cover1.q)
    parts0, parts1 = pres.cover0.parts, pres.cover1.parts
    injections = oracles.structure_maps([cat.proj[wj] for wj, _ in parts1], pres.cover1.p0)
    comps = {}
    projections0 = projections([cat.proj[zi] for zi, _ in parts0], pres.cover0.p0)
    for j in range(len(parts1)):
        fj = f1.compose(injections[j])
        for i in range(len(parts0)):
            comps[(j, i)] = projections0[i].compose(fj)
    bases0 = [cat.nak_data(cat.proj[zi])[1] for zi, _ in parts0]
    flats1 = [
        {z: [b.flatten() for b in basis] for z, basis in cat.nak_data(cat.proj[wj])[1].items()}
        for wj, _ in parts1
    ]
    mats = {}
    for z in cat.quiver.vertices:
        cols = []
        for i, bases in enumerate(bases0):
            for b in bases[z]:
                col = []
                for j, flats in enumerate(flats1):
                    comp = b.compose(comps[(j, i)])
                    col.extend(oracles._coords(flats[z], comp, "presentation component"))
                cols.append(tuple(col))
        rows = sum(len(flats[z]) for flats in flats1)
        mats[z] = RMatrix.from_columns(cols, rows).transpose()
    nu1, nu0 = cat._nak_of_parts(parts1), cat._nak_of_parts(parts0)
    return reps.kernel(reps.RepMap(nu1, nu0, mats, check=False))[0]


def _same_content(m, n) -> bool:
    return m.dims == n.dims and all(m.mats[a.name] == n.mats[a.name] for a in m.quiver.arrows)


@pytest.mark.parametrize(
    "category, quiver",
    [(path_category, lambda: a_n(3, "zigzag")), (path_category, d4_subspace), (dup_category, d4_subspace)],
    ids=["A3-zigzag", "D4", "D4-dup"],
)
def test_tau_at_the_generators_equals_flattened_spans(category, quiver):
    """tau read at the generators equals the flattened-span route on every
    non-projective catalog entry, and in the opposite category (where the
    knit gets tau^-1) on the dual of every non-injective entry."""
    cat = category(quiver())
    ar = cat.knit()
    op = cat.opposite()
    checked = 0
    for k, e in enumerate(ar.entries):
        if not ar.projective[k]:
            assert _same_content(cat.tau(e), _tau_by_flattened_spans(cat, e))
            checked += 1
        if not ar.injective[k]:
            dual = reps.dualize(e, op.quiver)
            assert _same_content(op.tau(dual), _tau_by_flattened_spans(op, dual))
            checked += 1
    assert checked == 2 * len(ar.sequences)


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURE_DIR.glob("*.quiver")))
def test_nakayama_of_projectives_by_yoneda_equals_hom_systems(fixture_dir, name):
    """On every fixture, in the path category, the duplicated category and
    their opposites, the Yoneda basis of each Hom(P_x, P_z) is the Hom
    system's basis map for map, and nu(P_x) is the Hom-system route's
    (``oracles.nak_data``)."""
    q = parse_quiver((fixture_dir / f"{name}.quiver").read_text(encoding="utf-8"))
    for category in (path_category, dup_category):
        for cat in (category(q), category(q).opposite()):
            for p in cat.proj.values():
                nu, bases = cat.nak_data(p)
                want_nu, want_bases = oracles.nak_data(cat, p)
                assert _same_content(nu, want_nu)
                for z in cat.quiver.vertices:
                    assert [b.mats for b in bases[z]] == [b.mats for b in want_bases[z]]


_DROPPED_NAKAYAMA_MAP = """
from dupcat import fixtures
from dupcat.dup import dup_category
from dupcat.errors import CatalogError
from dupcat.hereditary import path_category

cat = {category}(fixtures.d4_subspace())
for x in cat.quiver.vertices:
    m = cat.simple[x]
    pres = cat.presentation(m)
    if pres.omega_top:
        break
w = pres.omega_top[0][0]
key = ("nakayama", cat.content_id(cat.proj[w]))
nu, bases = cat.nak_data(cat.proj[w])
cat._facts[key] = (nu, {{**bases, w: bases[w][:-1]}})
try:
    cat.tau(m)
except CatalogError as exc:
    raise SystemExit(0 if "Nakayama basis of Hom" in str(exc) else 2)
raise SystemExit(1)
"""


@pytest.mark.parametrize("category", [path_category, dup_category], ids=["path", "dup"])
def test_tau_refuses_a_nakayama_basis_with_a_map_dropped(monkeypatch, src_env, category):
    """With the Nakayama basis of Hom(P_w, P_w) kept with its one map dropped,
    it has fewer maps than P_w(w) has dimensions, so its values at the
    generator are no coordinates: tau, which gathers those values, raises
    CatalogError, keeps nothing, and does the same under python -O."""
    monkeypatch.setattr(session, "_sessions", {})
    cat = category(d4_subspace())
    m = next(s for s in cat.simple.values() if cat.presentation(s).omega_top)
    w = cat.presentation(m).omega_top[0][0]
    assert cat.tau(m) is not None
    kept = set(cat._facts)
    nu, bases = cat.nak_data(cat.proj[w])
    cat._facts[("nakayama", cat.content_id(cat.proj[w]))] = (nu, {**bases, w: bases[w][:-1]})
    with pytest.raises(CatalogError, match=f"Nakayama basis of Hom\\(P_{w}, P_{w}\\)"):
        cat.tau(m)
    assert set(cat._facts) == kept
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _DROPPED_NAKAYAMA_MAP.format(category=category.__name__)],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
