"""One Session per quiver owns every per-quiver fact, and each is built once."""

import sys

from dupcat import reps, session
from dupcat.cli import main
from dupcat.cluster import pi_bar, shifted_projective
from dupcat.dup import dup_category, embed_A, proj_primed, standard_dup_modules
from dupcat.fixtures import d4_subspace
from dupcat.hereditary import path_category
from dupcat.leftpart import left_part_catalog
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
    """tau^{-1} of each embedded injective is computed once per quiver,
    although the left part, pi_bar and the cosyzygy check all read it."""
    _start_cold(monkeypatch)
    q = d4_subspace()
    calls = _count_calls(monkeypatch, ("tau_inv",))
    assert all(c.passed for c in run_all_checks(q))
    cat = dup_category(q)
    for i in standard_dup_modules(q).embedded_injective.values():
        assert sum(1 for c, m in calls if c is cat and m is i) == 1


def test_proj_primed_is_the_category_projective():
    q = d4_subspace()
    for x in q.vertices:
        assert proj_primed(q, x) is proj_primed(q, x)
        assert proj_primed(q, x) is dup_category(q).proj[prime(x)]


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
    """pi_bar looks the module up among the left-part members, so a module
    with the content of a cosyzygy (another object) projects to the shifted
    projective at its vertex."""
    q = d4_subspace()
    lpc = left_part_catalog(q)
    for x, i in lpc.cosyzygy_by_vertex.items():
        member = lpc.members[i]
        copy = Rep(member.quiver, member.dims, dict(member.mats))
        assert lpc.member_index(member) == lpc.member_index(copy) == i
        assert pi_bar(q, member) == pi_bar(q, copy) == shifted_projective(q, x)
