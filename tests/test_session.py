"""One Session per quiver owns every per-quiver fact, and each is built once."""

import sys

import pytest

from dupcat import quiver, reps, session
from dupcat.cli import main
from dupcat.cluster import pi_bar
from dupcat.dup import dup_category, embed_A, knit_ind_dup, standard_dup_modules
from dupcat.errors import NotDynkinError
from dupcat.fixtures import d4_subspace, kronecker
from dupcat.hereditary import knit_ind_A, path_category
from dupcat.leftpart import canonical_tilting, left_part_catalog, primed_projective_entry
from dupcat.tilting import enumerate_L_tilting
from dupcat.modcat import ModuleCategory
from dupcat.quiver import Quiver, opposite, parse_quiver, prime
from dupcat.reps import Rep
from dupcat.verify import run_all_checks


def _start_cold(monkeypatch):
    monkeypatch.setattr(session, "_sessions", {})


def _count_calls(monkeypatch, names):
    """Record (category, argument) of every call to the named
    ModuleCategory methods."""
    calls = []
    for name in names:
        inner = getattr(ModuleCategory, name)

        def counting(self, m, _inner=inner):
            calls.append((self, m))
            return _inner(self, m)

        monkeypatch.setattr(ModuleCategory, name, counting)
    return calls


def test_one_quiver_keyed_registry(monkeypatch):
    """After a cold D4 verify, the session registry is the only module-level
    dict in dupcat keyed by quivers."""
    _start_cold(monkeypatch)
    assert all(c.passed for c in run_all_checks(d4_subspace()))
    keyed = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "dupcat" or name.startswith("dupcat.")
        for attr, value in vars(module).items()
        if isinstance(value, dict) and any(isinstance(k, Quiver) for k in value)
    ]
    assert keyed == ["dupcat.session._sessions"]


def test_every_command_keeps_one_session(monkeypatch, fixture_dir, tmp_path, capsys):
    """From a cold registry, D4 analyze, verify, enumerate, export and
    emit-dot leave one Session, the input quiver's: tau^{-1} runs in the
    opposite category of each category, which is that category transposed
    (its projectives, injectives and simples are the duals of the
    injectives, projectives and simples), so no category of the opposite
    quiver is built."""
    _start_cold(monkeypatch)
    path = fixture_dir / "d4.quiver"
    for command in ("analyze", "verify", "enumerate", "export", "emit-dot"):
        assert main([command, "--quiver", str(path), "--out", str(tmp_path / command)]) == 0
    capsys.readouterr()
    q = parse_quiver(path.read_text(encoding="utf-8"))
    assert list(session._sessions) == [q]
    for cat in (path_category(q), dup_category(q)):
        op = cat.opposite()
        assert op.quiver == opposite(cat.quiver)
        for z in cat.quiver.vertices:
            for mine, theirs in ((op.proj[z], cat.inj[z]), (op.inj[z], cat.proj[z]), (op.simple[z], cat.simple[z])):
                dual = reps.dualize(theirs, op.quiver)
                assert (mine.dims, mine.mats) == (dual.dims, dual.mats)
    assert list(session._sessions) == [q]


def test_translate_budget(monkeypatch):
    """One cold D4 run_all_checks makes at most 130 tau and tau^{-1}
    computations (187 when verify_pd_criterion and the embedding check
    recomputed the knit's links and the cosyzygies were built three times;
    123 now)."""
    _start_cold(monkeypatch)
    calls = _count_calls(monkeypatch, ("tau", "tau_inv"))
    assert all(c.passed for c in run_all_checks(d4_subspace()))
    assert 0 < len(calls) <= 130


def test_cosyzygies_are_computed_once(monkeypatch):
    """tau^{-1} of each embedded injective is computed once per quiver, by
    the knit, although the left part, pi_bar and the cosyzygy check all
    read it: they read the knit's links."""
    _start_cold(monkeypatch)
    q = d4_subspace()
    calls = _count_calls(monkeypatch, ("tau_inv",))
    assert all(c.passed for c in run_all_checks(q))
    cat, entries, lpc = dup_category(q), knit_ind_dup(q).entries, left_part_catalog(q)
    for k in knit_ind_A(q).injective_at:
        i = entries[lpc.ind_a[k]]  # the embedded injective
        assert sum(1 for c, m in calls if c is cat and m is i) == 1
        assert sum(1 for c, m in calls if c is cat and cat.content_id(m) == cat.content_id(i)) == 1


def test_primed_projective_entry_is_the_category_projective():
    """P_x' is one module, kept by the session: the standard module, the
    category's projective and the knit's entry that
    ``primed_projective_entry`` names."""
    q = d4_subspace()
    entries = knit_ind_dup(q).entries
    for x in q.vertices:
        pp = standard_dup_modules(q).projective_primed[x]
        assert pp is standard_dup_modules(q).projective_primed[x]
        assert pp is dup_category(q).proj[prime(x)]
        assert entries[primed_projective_entry(q, x)] is pp


def test_standard_reps_are_the_category_modules():
    """The embedded standard modules of the duplicated algebra are built on
    the path category's own modules: each is the one ``embed_A`` keeps for
    that very module, and holds its arrow matrices."""
    q = d4_subspace()
    std, cat = standard_dup_modules(q), path_category(q)
    for x in q.vertices:
        for m, base in ((std.embedded_injective[x], cat.inj[x]), (std.projective[x], cat.proj[x]),
                        (std.simple[x], cat.simple[x])):
            assert m is embed_A(base)
            assert all(m.mats[a.name] is base.mats[a.name] for a in q.arrows)


def test_pi_bar_compares_against_the_left_part_cosyzygy():
    """pi_bar looks the module up in the knitted catalog and projects the
    entry index it finds, so a module with the content of a cosyzygy
    (another object) projects to the shifted projective at its vertex."""
    q = d4_subspace()
    lpc = left_part_catalog(q)
    catalog = knit_ind_dup(q).catalog
    for k, i in enumerate(lpc.cosyzygies):
        member = catalog.entries[i]
        copy = Rep(member.quiver, member.dims, dict(member.mats))
        assert catalog.find(member) == catalog.find(copy) == i
        # P_x[1] for the k-th vertex x is the k-th position past ind A
        assert pi_bar(q, member) == pi_bar(q, copy) == len(lpc.ind_a) + k


def test_a_warm_e7_enumerate_reads_the_catalog_once_per_pass(monkeypatch, fixture_dir, capsys):
    """A warm in-process E7 ``enumerate`` hashes a Quiver at most 250 times
    (155 now): each pass over pairs of fundamental-domain objects reads the
    catalog of ind A once instead of making a session lookup per pair
    (2,639 hashes when it did)."""
    path = str(fixture_dir / "e7.quiver")
    assert main(["enumerate", "--quiver", path]) == 0
    hashes = []
    inner = Quiver.__hash__
    monkeypatch.setattr(Quiver, "__hash__", lambda q: hashes.append(q) or inner(q))
    assert main(["enumerate", "--quiver", path]) == 0
    capsys.readouterr()
    assert 0 < len(hashes) <= 250


def _count_classifications(monkeypatch):
    """Record every call of ``classify_dynkin`` through any dupcat module
    that binds it."""
    calls = []
    inner = quiver.classify_dynkin

    def counting(q):
        calls.append(q)
        return inner(q)

    for name, module in list(sys.modules.items()):
        if name.startswith("dupcat") and getattr(module, "classify_dynkin", None) is inner:
            monkeypatch.setattr(module, "classify_dynkin", counting)
    return calls


def test_a_session_classifies_its_quiver_once_for_the_left_part(monkeypatch, fixture_dir):
    """One cold E6 run_all_checks classifies the quiver at most 6 times (4
    now: the suite's guard, the left part's build, the cluster enumeration
    and the degree-product count), not once per read of the left part (92
    times when every read was guarded)."""
    _start_cold(monkeypatch)
    calls = _count_classifications(monkeypatch)
    q = parse_quiver((fixture_dir / "e6.quiver").read_text(encoding="utf-8"))
    assert all(c.passed for c in run_all_checks(q))
    assert 0 < len(calls) <= 6


def test_a_non_dynkin_quiver_raises_on_every_read_of_the_left_part(monkeypatch):
    """The left part's build raises NotDynkinError and keeps nothing, so
    every later read raises again, through each route that reaches it; the
    Kronecker quiver raises before any knit."""
    _start_cold(monkeypatch)
    a2_a1 = Quiver(["1", "2", "3"], [("a", "2", "1")])
    cat = knit_ind_dup(a2_a1)
    for q, reads in (
        (a2_a1, (left_part_catalog, canonical_tilting, enumerate_L_tilting,
                 lambda q: cat.in_L, lambda q: cat.in_sigma)),
        (kronecker(), (left_part_catalog, canonical_tilting, enumerate_L_tilting)),
    ):
        for read in reads:
            for _ in range(2):
                with pytest.raises(NotDynkinError, match="^operation requires a Dynkin quiver$"):
                    read(q)
