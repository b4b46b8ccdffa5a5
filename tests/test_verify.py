import json
import subprocess
import sys

import pytest

from dupcat import cli, cluster, leftpart, linalg, modcat, reps, session, tilting, verify
from dupcat.dup import dim_vectors, dup_category, knit_ind_dup
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import knit_ind_A, path_category
from dupcat.linalg import RMatrix
from dupcat.leftpart import (
    Report,
    left_part_catalog,
    nonsectional_targets,
    sectional_check,
)
from dupcat.quiver import Quiver, parse_quiver, prime, sinks_and_sources
from dupcat.reps import Rep, is_isomorphic
from dupcat.tilting import enumerate_L_tilting
from dupcat.verify import run_all_checks
from oracles import hom_dim_by_rank, rebuilt


# -- oracles: the brute-force routes the AR-quiver readings replaced ----------


def _hom_reach(modules):
    """Reflexive-transitive closure of the nonzero-hom relation, from one Hom
    solve per ordered pair."""
    n = len(modules)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and hom_dim_by_rank(modules[i], modules[j]) > 0:
                reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def _ar_paths(cat, start: int):
    """Yield every directed path in the AR quiver from ``start``, in preorder
    with successors in increasing order.  Raises ValueError on an oriented
    cycle."""
    adj = {}
    for s, t, _ in cat.catalog.arrows:
        adj.setdefault(s, set()).add(t)
    succ = {s: sorted(ts, reverse=True) for s, ts in adj.items()}
    stack = [(start,)]
    while stack:
        path = stack.pop()
        yield path
        nxt = succ.get(path[-1], ())
        for t in nxt:
            if t in path:
                raise ValueError("AR quiver has an oriented cycle")
        stack.extend([path + (t,) for t in nxt])


def _is_sectional(path, tau_of) -> bool:
    return all(tau_of.get(path[k + 1]) != path[k - 1] for k in range(1, len(path) - 1))


def _enumerated_nonsectional_targets(cat, start):
    return {p[-1] for p in _ar_paths(cat, start) if not _is_sectional(p, cat.catalog.tau_of)}


def _sectional_check_by_enumeration(cat) -> Report:
    """The sectional check with every AR path from each sink enumerated: a
    witness per non-sectional path into the left part."""
    reach, pd_table = _hom_reach(list(cat.entries)), cat.pd_table
    witnesses = []
    for a, start in _sink_starts(cat).items():
        targets = set()
        for path in _ar_paths(cat, start):
            if not _is_sectional(path, cat.catalog.tau_of):
                targets.add(path[-1])
                if cat.in_L[path[-1]]:
                    witnesses.append(f"non-sectional path {path} from sink {a} ends inside the left part")
        for j in range(len(cat.entries)):
            if cat.in_L[j] or not reach[start][j] or j in targets:
                continue
            if not any(reach[i][j] and not pd_table[i] for i in range(len(cat.entries))):
                witnesses.append(
                    f"entry {j} outside the left part lacks a non-sectional path "
                    f"from sink {a} and a pd>=2 predecessor"
                )
    return Report("sectional-paths", not witnesses, witnesses)


def _d5():
    return Quiver(
        ["1", "2", "3", "4", "5"],
        [("a1", "2", "1"), ("a2", "3", "2"), ("a3", "4", "3"), ("a4", "5", "3")],
    )


def _sink_starts(cat):
    ctx = dup_category(cat.base)
    sinks, _ = sinks_and_sources(cat.base)
    return {a: cat.catalog.entries.index(ctx.proj[prime(a)]) for a in sinks}


def _tamper_tau(cat):
    """A copy of cat whose tau_of makes one sink path into the left part
    non-sectional: tau x2 := x0 on a path x0 -> x1 -> x2 ending in L."""
    start = min(_sink_starts(cat).values())
    for path in _ar_paths(cat, start):
        if len(path) >= 3 and cat.in_L[path[-1]]:
            tau_of = dict(cat.catalog.tau_of)
            tau_of[path[-1]] = path[-3]
            return rebuilt(cat, catalog=rebuilt(cat.catalog, tau_of=tau_of))
    raise AssertionError("no sink path of length 2 into the left part")


@pytest.mark.parametrize(
    "quiver", [lambda: a_n(2), lambda: a_n(3, "zigzag"), d4_subspace, _d5],
    ids=["A2", "A3-zigzag", "D4", "D5"],
)
def test_sectional_dp_equals_enumeration(quiver):
    """The (previous, current) worklist finds the non-sectional targets the
    path enumeration finds, each witness path is non-sectional and ends at
    its target, and both routes pass."""
    cat = knit_ind_dup(quiver())
    arrows = {(s, t) for s, t, _ in cat.catalog.arrows}
    for start in _sink_starts(cat).values():
        targets = nonsectional_targets(cat.catalog.arrows, cat.catalog.tau_of, start)
        assert set(targets) == _enumerated_nonsectional_targets(cat, start)
        for j, path in targets.items():
            assert path[0] == start and path[-1] == j
            assert set(zip(path, path[1:])) <= arrows
            assert not _is_sectional(path, cat.catalog.tau_of)
    dp, enum = sectional_check(cat), _sectional_check_by_enumeration(cat)
    assert dp.passed and enum.passed, (dp.witnesses, enum.witnesses)


@pytest.mark.parametrize("quiver", [lambda: a_n(3, "zigzag"), d4_subspace], ids=["A3-zigzag", "D4"])
def test_tampered_tau_fails_both_sectional_routes(quiver):
    """A tau_of that makes a sink path into the left part non-sectional
    fails the DP and the enumeration; the DP names one path per target."""
    cat = knit_ind_dup(quiver())
    broken = _tamper_tau(cat)
    assert not sectional_check(broken).passed
    assert not _sectional_check_by_enumeration(broken).passed
    expected = []
    for a, start in _sink_starts(broken).items():
        targets = nonsectional_targets(broken.catalog.arrows, broken.catalog.tau_of, start)
        assert set(targets) == _enumerated_nonsectional_targets(broken, start)
        expected += [
            f"non-sectional path {path} from sink {a} ends inside the left part"
            for j, path in targets.items()
            if broken.in_L[j]
        ]
    witnesses = sectional_check(broken).witnesses
    assert expected and [w for w in witnesses if w.startswith("non-sectional")] == expected


@pytest.mark.parametrize(
    "quiver", [lambda: a_n(3), d4_subspace, _d5], ids=["A3", "D4", "D5"],
)
def test_table_reach_equals_full_hom_closure(quiver):
    """Reachability read off the hom table equals the closure of one Hom
    solve per ordered pair."""
    cat = knit_ind_dup(quiver())
    assert cat.reach == _hom_reach(list(cat.entries))


def test_reach_solves_no_hom_system(monkeypatch):
    """On a cold knitted D5 catalog, reachability builds the hom table and
    its closure with no Hom system."""
    _start_cold(monkeypatch)
    cat = knit_ind_dup(_d5())
    systems = _count_hom_systems(monkeypatch)
    assert cat.reach and systems == []


def test_reach_rejects_an_arrow_without_a_nonzero_map():
    """An AR arrow between entries with Hom = 0 makes the hom table fail its
    certificate: CatalogError."""
    cat = knit_ind_dup(a_n(2))
    s, t = next(
        (i, j)
        for i in range(len(cat.entries))
        for j in range(len(cat.entries))
        if hom_dim_by_rank(cat.entries[i], cat.entries[j]) == 0
    )
    arrows = cat.catalog.arrows + ((s, t, 1),)
    broken = rebuilt(cat, catalog=rebuilt(cat.catalog, arrows=arrows))
    with pytest.raises(CatalogError, match="hom table"):
        broken.reach


def _start_cold(monkeypatch):
    """Swap the session registry for an empty one, as in a fresh process."""
    monkeypatch.setattr(session, "_sessions", {})


def _count_hom_systems(monkeypatch):
    """A list that records (m, n) of every Hom basis solved from now on
    (``reps.hom_basis``, the library's one Hom system)."""
    systems = []
    inner = reps.hom_basis

    def counting(m, n):
        systems.append((m, n))
        return inner(m, n)

    monkeypatch.setattr(reps, "hom_basis", counting)
    monkeypatch.setattr(modcat, "hom_basis", counting)
    return systems


def test_direct_sum_budget(monkeypatch):
    """One cold D4 run_all_checks builds each sum of projectives (and of
    their Nakayama images) once: at most 200 engine direct sums."""
    _start_cold(monkeypatch)
    calls = []
    inner = modcat.sum_rep

    def counting(parts):
        calls.append(parts)
        return inner(parts)

    monkeypatch.setattr(modcat, "sum_rep", counting)
    checks = run_all_checks(d4_subspace())
    assert all(c.passed for c in checks)
    assert 0 < len(calls) <= 200


def test_hom_basis_budget(monkeypatch):
    """One cold D4 run_all_checks reads Hom and Ext^1 dimensions off the
    hom table: at most 1,200 Hom bases (3,307 when every Hom dimension built
    a basis and nothing kept Ext^1; 761 when facts were kept per object; 298
    when the knit also certified each almost split sequence with the
    presentation-based Ext^1; 218 when the Nakayama images of the
    projectives were solved from Hom systems and the knit took every
    tau^{-1} by the Nakayama route; 82 now, with no basis kept, since no
    pair of module contents is asked twice)."""
    _start_cold(monkeypatch)
    calls = []
    inner = reps.hom_basis

    def counting(m, n):
        calls.append((m, n))
        return inner(m, n)

    monkeypatch.setattr(reps, "hom_basis", counting)
    monkeypatch.setattr(modcat, "hom_basis", counting)
    checks = run_all_checks(d4_subspace())
    assert all(c.passed for c in checks)
    assert 0 < len(calls) <= 1200


def test_kernel_call_budget(monkeypatch):
    """One cold D4 run_all_checks works only where its modules live: at most
    5,000 matrix products, at most 1,000 of them with an empty side, and at
    most 1,500 eliminations (12,905 products, 9,711 with an empty side, and
    2,658 eliminations when every block of every vertex was multiplied,
    stacked and solved; 3,591, 415 and 1,129 now)."""
    _start_cold(monkeypatch)
    products, empty, eliminations = [], [], []
    inner_mm, inner_rref = RMatrix.__matmul__, linalg._int_rref

    def counting_mm(a, b):
        products.append(None)
        if 0 in (a.rows, a.cols, b.cols):
            empty.append(None)
        return inner_mm(a, b)

    def counting_rref(m):
        eliminations.append(None)
        return inner_rref(m)

    monkeypatch.setattr(RMatrix, "__matmul__", counting_mm)
    monkeypatch.setattr(linalg, "_int_rref", counting_rref)
    checks = run_all_checks(d4_subspace())
    assert all(c.passed for c in checks)
    assert 0 < len(products) <= 5000
    assert len(empty) <= 1000
    assert 0 < len(eliminations) <= 1500


def test_cover_budget(monkeypatch):
    """One cold D4 run_all_checks computes at most 130 projective covers
    (306 when they were kept per object; 69 now).  A cover is not kept: it
    is read through the presentation kept per module content, so it is
    computed exactly once per presentation."""
    _start_cold(monkeypatch)
    calls, presentations = [], []
    inner = modcat.ModuleCategory.cover
    inner_presentation = modcat.ModuleCategory._presentation

    def counting(self, m):
        calls.append(m)
        return inner(self, m)

    def presentation(self, m):
        presentations.append(m)
        return inner_presentation(self, m)

    monkeypatch.setattr(modcat.ModuleCategory, "cover", counting)
    monkeypatch.setattr(modcat.ModuleCategory, "_presentation", presentation)
    checks = run_all_checks(d4_subspace())
    assert all(c.passed for c in checks)
    assert 0 < len(calls) <= 130
    assert calls == presentations


def test_hom_system_budget(monkeypatch):
    """One cold D4 run_all_checks reads its AR facts off the AR quiver, so
    at most 10 split_pair calls find no split pair (41 when reachability
    solved every ordered pair and the knit scanned the catalog)."""
    _start_cold(monkeypatch)
    misses = []
    inner_split = reps.split_pair

    def counting_split(c, e):
        pair = inner_split(c, e)
        if pair is None:
            misses.append((c, e))
        return pair

    monkeypatch.setattr(reps, "split_pair", counting_split)
    checks = run_all_checks(d4_subspace())
    assert all(c.passed for c in checks)
    assert len(misses) <= 10


def _d5_branch():
    """D5 oriented 2->1, 3->2, 3->4, 5->3."""
    return Quiver(
        ["1", "2", "3", "4", "5"],
        [("a1", "2", "1"), ("a2", "3", "2"), ("a3", "3", "4"), ("a4", "5", "3")],
    )


@pytest.mark.parametrize("quiver", [d4_subspace, _d5_branch], ids=["D4", "D5"])
def test_knit_certifies_each_sequence_with_one_hom_basis(monkeypatch, quiver):
    """One cold run_all_checks certifies each almost split sequence of the
    two catalogs (36 on D4, 65 on D5) with one Hom basis, Hom(coker f, N),
    and no presentation: the knit also solved Hom(Omega N, tau N) and ran
    the presentation-based Ext^1 per sequence when that certified
    dim Ext^1(N, tau N) = 1."""
    _start_cold(monkeypatch)
    inside, bases, presentations = [], [], []
    inner_sequence = modcat.ModuleCategory._almost_split
    inner_basis = reps.hom_basis
    inner_presentation = modcat.ModuleCategory._presentation

    def sequence(self, *args):
        inside.append(None)
        try:
            return inner_sequence(self, *args)
        finally:
            inside.pop()

    def basis(m, n):
        if inside:
            bases.append((m, n))
        return inner_basis(m, n)

    def presentation(self, m):
        if inside:
            presentations.append(m)
        return inner_presentation(self, m)

    monkeypatch.setattr(modcat.ModuleCategory, "_almost_split", sequence)
    monkeypatch.setattr(modcat, "hom_basis", basis)
    monkeypatch.setattr(modcat.ModuleCategory, "_presentation", presentation)
    q = quiver()
    assert all(c.passed for c in run_all_checks(q))
    sequences = len(knit_ind_A(q).sequences) + len(knit_ind_dup(q).catalog.sequences)
    assert len(bases) == sequences and presentations == []


def test_isomorphism_hom_systems_budget(monkeypatch):
    """One cold D5 run_all_checks solves at most 8 Hom systems to test
    isomorphism, for at most 4 unordered pairs of module contents (155
    systems for 77 pairs when find_iso and the checks repeated them; 4 for
    2 now): the dimension vector and the content id decide every other
    pair, so no verdict is kept."""
    _start_cold(monkeypatch)
    pairs = []
    inner = reps.is_isomorphic

    def content(m):
        return m.quiver, m.dim_vector(), tuple(m.mats[a.name].data for a in m.quiver.arrows)

    def counting(m, n):
        if m is not n and m.dim_vector() == n.dim_vector() and m.total_dim():
            pairs.append(frozenset((content(m), content(n))))
        return inner(m, n)

    monkeypatch.setattr(reps, "is_isomorphic", counting)
    assert all(c.passed for c in run_all_checks(_d5()))
    assert 0 < len(pairs) <= 8 and len(set(pairs)) <= 4


@pytest.mark.parametrize("fixture", ["d4", "e7"], ids=["D4", "E7"])
def test_pd_criterion_hom_system_budget(monkeypatch, fixture_dir, fixture):
    """The projective-dimension check reads Hom(I, tau M) off the hom table:
    it solves no Hom system on a cold catalog (D4 39 and E7 495 when it
    solved them with a top-support zero test; 60 and 897 before that)."""
    _start_cold(monkeypatch)
    q = parse_quiver((fixture_dir / f"{fixture}.quiver").read_text(encoding="utf-8"))
    cat = knit_ind_dup(q)
    systems = _count_hom_systems(monkeypatch)
    assert leftpart.verify_pd_criterion(cat).passed
    assert systems == []


def test_socle_quotient_check_rejects_a_wrong_simple(monkeypatch, src_env):
    """A simple at the sink with a 2-dimensional Hom into the injective
    raises CatalogError, also under python -O."""
    monkeypatch.setattr(session, "_sessions", {})
    q = a_n(2)
    monkeypatch.setitem(path_category(q).simple, "1", Rep(q, {"1": 2}, {}))
    with pytest.raises(CatalogError, match="Hom"):
        verify.check_socle_quotient_sequences(q)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_SIMPLE],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_WRONG_SIMPLE = """
from dupcat import verify
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n
from dupcat.hereditary import path_category
from dupcat.reps import Rep

q = a_n(2)
path_category(q).simple["1"] = Rep(q, {"1": 2}, {})
try:
    verify.check_socle_quotient_sequences(q)
except CatalogError:
    raise SystemExit(0)
raise SystemExit(1)
"""


@pytest.mark.parametrize("field", ["left", "middle"])
def test_socle_quotient_check_reads_the_certified_sequence(monkeypatch, field):
    """The check reads the almost split sequence of the session's catalog:
    a copied catalog whose sequence ending at P_a'/S_a has a wrong left
    term or a wrong middle term fails with a witness naming the sink."""
    _start_cold(monkeypatch)
    q = d4_subspace()
    assert verify.check_socle_quotient_sequences(q).passed
    a = sinks_and_sources(q)[0][0]
    dup_cat = knit_ind_dup(q)
    _, incl = dup_category(q).socle(dup_category(q).proj[prime(a)])
    k = dup_cat.catalog.find(reps.cokernel(incl)[0])  # the entry of P_a'/S_a
    seq = dup_cat.catalog.sequences[k]
    if field == "left":
        wrong = seq._replace(left=k)
    else:
        wrong = seq._replace(middle=tuple((j, m + 1) for j, m in seq.middle))
    sequences = {**dup_cat.catalog.sequences, k: wrong}
    copied = rebuilt(dup_cat, catalog=rebuilt(dup_cat.catalog, sequences=sequences))
    monkeypatch.setitem(session.session(q).__dict__, "dup_catalog", copied)
    report = verify.check_socle_quotient_sequences(q)
    assert not report.passed
    assert report.witnesses and all(w.startswith(f"sink {a}:") for w in report.witnesses)
    assert any(field in w for w in report.witnesses)


_D4_CHECKS = [
    "embedding-fidelity",
    "projective-dimension-criterion",
    "sink-reachability",
    "sectional-paths",
    "ext-injectives-characterization",
    "left-part-two-route-equality",
    "cosyzygy-translate-identity",
    "socle-quotient-sequences",
    "fundamental-domain-count",
    "extension-symmetry-and-cross-model",
    "tilting-bijection",
    "canonical-tilting",
]


def test_report_dicts_on_d4():
    """``Report.as_dict`` and ``BijectionReport.as_dict`` give the dicts
    that ``verify --out`` and ``enumerate --out`` write, a report made
    without witnesses has a list of its own, and a bijection report is
    false exactly when it did not match."""
    q = d4_subspace()
    assert [c.as_dict() for c in run_all_checks(q)] == [
        {"check": name, "passed": True,
         "witnesses": ["50 tilting modules on both sides"] if name == "tilting-bijection" else []}
        for name in _D4_CHECKS
    ]
    assert tilting.verify_bijection(q).as_dict() == {
        "check": "tilting-bijection",
        "tilting-modules": 50,
        "cluster-tilting-objects": 50,
        "passed": True,
        "witnesses": [],
    }
    failed, passed = leftpart.Report("a", False), leftpart.Report("b", True)
    failed.witnesses.append("w")
    assert failed.as_dict() == {"check": "a", "passed": False, "witnesses": ["w"]}
    assert passed.as_dict() == {"check": "b", "passed": True, "witnesses": []}
    assert not failed and passed
    bij = tilting.verify_bijection(q)
    assert bij and not bij._replace(matched=False)
    assert bij._replace(matched=False, witnesses=["w"]).as_dict()["witnesses"] == ["w"]


def test_run_all_checks_remaining_fixtures():
    for q in (a_n(3, "zigzag"), d4_subspace()):
        checks = run_all_checks(q)
        assert len(checks) == 12
        for c in checks:
            assert c.passed, (c.name, c.witnesses)


def test_four_way_sigma_equivalence_pointwise():
    """sigma membership = (in L, not embedded) = (in L with a sink path)
    = (sink path exists and every irreducible refinement is sectional)."""
    for q in (a_n(2), a_n(3)):
        lpc = left_part_catalog(q)
        cat = knit_ind_dup(q)
        sinks, _ = sinks_and_sources(q)
        reach = _hom_reach(list(cat.entries))
        starts = _sink_starts(cat)
        tau_of = cat.catalog.tau_of
        all_paths = {a: list(_ar_paths(cat, s)) for a, s in starts.items()}
        for i in range(len(cat.entries)):
            a_flag = cat.in_sigma[i]
            b_flag = cat.in_L[i] and not cat.in_ind_A[i]
            c_flag = cat.in_L[i] and any(reach[s][i] for s in starts.values())
            has_sink_path = any(reach[s][i] for s in starts.values())
            all_sectional = True
            for paths in all_paths.values():
                for path in paths:
                    if path[-1] != i:
                        continue
                    for k in range(1, len(path) - 1):
                        if tau_of.get(path[k + 1]) == path[k - 1]:
                            all_sectional = False
            d_flag = has_sink_path and all_sectional
            assert a_flag == b_flag == c_flag == d_flag, (q, i)


def test_catalog_entries_pairwise_distinct():
    for cat in (knit_ind_A(a_n(3)), knit_ind_A(d4_subspace())):
        for i, m in enumerate(cat.entries):
            assert is_isomorphic(m, m)
            for j in range(i + 1, len(cat.entries)):
                assert not is_isomorphic(m, cat.entries[j])
    dcat = knit_ind_dup(a_n(2))
    for i, m in enumerate(dcat.entries):
        for j in range(i + 1, len(dcat.entries)):
            assert not is_isomorphic(m, dcat.entries[j])


def test_cli_verify_deterministic(fixture_dir, capsys):
    path = str(fixture_dir / "a2.quiver")
    assert cli.main(["verify", "--quiver", path]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "--quiver", path]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_verify_fails_on_injected_failure(fixture_dir, capsys, monkeypatch):
    def fake_checks(q, cap=10000):
        return [Report("injected-check", False, ["synthetic witness"])]

    monkeypatch.setattr(cli, "run_all_checks", fake_checks)
    code = cli.main(["verify", "--quiver", str(fixture_dir / "a2.quiver")])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] injected-check" in out
    assert "synthetic witness" in out


def test_each_member_projected_at_most_twice(monkeypatch):
    """The full suite on a cold D4 session projects each non-projective-
    injective left-part member once, when it builds the pi_bar table, and
    the cross-model check and the bijection read that table: neither calls
    ``pi_bar``, which looks a module up in the catalog first."""
    monkeypatch.setattr(session, "_sessions", {})
    tables, calls = [], []
    build, inner = cluster.build_pi_bar_table, cluster.pi_bar

    def counting(q):
        tables.append(build(q))
        return tables[-1]

    def projecting(q, m):
        calls.append(m)
        return inner(q, m)

    monkeypatch.setattr(cluster, "build_pi_bar_table", counting)
    monkeypatch.setattr(cluster, "pi_bar", projecting)
    q = d4_subspace()
    checks = run_all_checks(q)
    assert all(c.passed for c in checks)
    members = left_part_catalog(q).non_proj_inj
    assert len(tables) == 1 and sorted(tables[0]) == sorted(members)
    assert calls == []


# Runs the D4 suite with one Ext^1 value tampered and prints the dicts of the
# bijection check and the cross-model check: "cluster" gives one compatible
# pair of positions Ext^1_C = 1 one way in the table of the fundamental
# domain; "dup" gives the first two free summands of the first tilting
# module Ext^1 = 1 one way in the knit of the duplicated algebra.
_TAMPERED_CHECKS = """
import json, sys
from dupcat.cluster import Domain, fundamental_domain
from dupcat.dup import DupCatalog
from dupcat.fixtures import d4_subspace
from dupcat.session import session
from dupcat.tilting import enumerate_L_tilting
from dupcat.verify import run_all_checks

q = d4_subspace()
if sys.argv[1] == "cluster":
    domain = fundamental_domain(q)
    j = next(j for j in range(1, len(domain.names)) if domain.compat[0] >> j & 1)
    ext1 = [list(row) for row in domain.ext1]
    ext1[0][j] = 1
    session(q).fundamental_domain = Domain(domain.names, tuple(map(tuple, ext1)), domain.of_ind_a)
else:
    k, l = enumerate_L_tilting(q)[0][:2]
    inner = DupCatalog.ext1_dim
    DupCatalog.ext1_dim = lambda self, i, j: 1 if (i, j) == (k, l) else inner(self, i, j)
checks = {c.name: c.as_dict() for c in run_all_checks(q)}
print(json.dumps([checks["tilting-bijection"], checks["extension-symmetry-and-cross-model"]]))
"""


@pytest.mark.parametrize("side", ["cluster", "dup"])
def test_a_tampered_ext1_value_fails_the_bijection_and_the_cross_model_check(side, src_env):
    """One Ext^1 value changed on either side of the projection makes both
    the bijection check and the cross-model check fail, each with a
    witness naming the pair by its dimension vectors both ways (and the
    cross-model check, for the cluster side, the asymmetric pair by its
    position names), also under python -O."""
    q = d4_subspace()
    cat, domain = knit_ind_dup(q), cluster.fundamental_domain(q)
    if side == "cluster":
        j = next(j for j in range(1, len(domain.names)) if domain.compat[0] >> j & 1)
        at = {p: k for k, p in session.session(q).pi_bar_table.items()}
        k, l = at[0], at[j]
    else:
        k, l = enumerate_L_tilting(q)[0][:2]
    pair = [dim_vectors(cat.entries[k]), dim_vectors(cat.entries[l])]
    mismatches = [f"cross-model mismatch at {a} / {b}" for a, b in (pair, pair[::-1])]
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _TAMPERED_CHECKS, side],
            env=src_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    bijection, cross = outputs[0]
    assert not bijection["passed"] and not cross["passed"]
    assert sorted(mismatches) == sorted(w for w in bijection["witnesses"] if w.startswith("cross-model"))
    asymmetric = []
    if side == "cluster":
        names = (domain.names[0], domain.names[j])
        asymmetric = [f"asymmetric pair {names[0]}, {names[1]}", f"asymmetric pair {names[1]}, {names[0]}"]
    assert sorted(cross["witnesses"]) == sorted(asymmetric + mismatches)


def test_cross_model_check_looks_up_the_quiver_linearly(monkeypatch, fixture_dir):
    """On E6 the extension check reads Ext^1 on the cluster side off the
    session's table of the fundamental domain: once its facts are built,
    it hashes the quiver a few times per call (each session lookup), not
    once per projected member or per ordered pair of members (42^2 = 1,764
    on E6)."""
    q = parse_quiver((fixture_dir / "e6.quiver").read_text(encoding="utf-8"))
    lpc = left_part_catalog(q)
    assert verify.check_ext_symmetry_and_cross_model(q, lpc).passed
    calls = []
    inner = Quiver.__hash__

    def counting(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(Quiver, "__hash__", counting)
    assert verify.check_ext_symmetry_and_cross_model(q, lpc).passed
    members = lpc.non_proj_inj
    assert len(members) == 42
    assert 0 < len(calls) <= 8


def _caller() -> str:
    """The name of the function that called the caller of this function,
    past any comprehension frames."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.mark.parametrize("fixture, members", [("d4", 12), ("e6", 36)], ids=["D4", "E6"])
def test_checks_look_up_no_entry_the_left_part_holds(monkeypatch, fixture_dir, fixture, members):
    """In a cold run_all_checks, a module is looked up in a catalog only by
    the knit, by ``decompose``, by the left part's own lookup of embedded
    ind A (``DupCatalog.indices``: 12 modules on D4, 36 on E6) and once per
    sink by the socle check; an isomorphism is decided only by a lookup and
    by the cosyzygy check.  Every other checker and reader takes its entry
    indices from the left part or ``primed_projective_entry`` (36 modules
    looked up on D4 and 90 on E6 when they found them again)."""
    _start_cold(monkeypatch)
    q = parse_quiver((fixture_dir / f"{fixture}.quiver").read_text(encoding="utf-8"))
    callers = {"find_iso": {}, "find": {}, "iso": {}}
    for owner, name in ((modcat.ModuleCategory, "find_iso"), (modcat.ARCatalog, "find"),
                        (modcat.ModuleCategory, "iso")):
        def counting(*args, _inner=getattr(owner, name), _seen=callers[name]):
            caller = _caller()
            _seen[caller] = _seen.get(caller, 0) + 1
            return _inner(*args)

        monkeypatch.setattr(owner, name, counting)
    assert all(c.passed for c in run_all_checks(q))
    assert set(callers["find_iso"]) == {"knit", "decompose", "find"}
    sinks, _ = sinks_and_sources(q)
    assert callers["find"] == {"indices": members, "check_socle_quotient_sequences": len(sinks)}
    assert set(callers["iso"]) == {"find_iso", "check_cosyzygy_tau_identity"}
