import subprocess
import sys

import pytest

from dupcat import cli, modcat, reps, session, tilting, verify
from dupcat.dup import hom_reach, knit_ind_dup
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import knit_ind_A, path_category
from dupcat.leftpart import (
    Report,
    _ar_paths,
    annotate_catalog,
    left_part_catalog,
)
from dupcat.quiver import prime, sinks_and_sources
from dupcat.reps import Rep, is_isomorphic
from dupcat.verify import run_all_checks


def _start_cold(monkeypatch):
    """Swap the session registry for an empty one, as in a fresh process."""
    monkeypatch.setattr(session, "_sessions", {})


def test_direct_sum_budget(monkeypatch):
    """One cold D4 run_all_checks builds each sum of projectives (and of
    their Nakayama images) once: at most 200 engine direct sums."""
    _start_cold(monkeypatch)
    calls = []
    inner = modcat.direct_sum

    def counting(parts):
        calls.append(parts)
        return inner(parts)

    monkeypatch.setattr(modcat, "direct_sum", counting)
    checks = run_all_checks(d4_subspace())
    assert all(c.passed for c in checks)
    assert 0 < len(calls) <= 200


def test_hom_basis_budget(monkeypatch):
    """One cold D4 run_all_checks keeps each Hom/Ext fact per pair of module
    contents and reads Hom dimensions by rank: at most 1,200 Hom bases (3,307 when
    every hom_dim built a basis and nothing kept Ext^1; 761 when facts were
    kept per object; 583 now)."""
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


def test_cover_budget(monkeypatch):
    """One cold D4 run_all_checks keeps each projective cover per module
    content, so a syzygy's cover is the second cover of its module's
    presentation: at most 130 covers computed (306 when they were kept per
    object; 114 now)."""
    _start_cold(monkeypatch)
    calls = []
    inner = modcat.ModuleCategory._cover

    def counting(self, m):
        calls.append(m)
        return inner(self, m)

    monkeypatch.setattr(modcat.ModuleCategory, "_cover", counting)
    checks = run_all_checks(d4_subspace())
    assert all(c.passed for c in checks)
    assert 0 < len(calls) <= 130


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


def test_run_all_checks_remaining_fixtures():
    for q in (a_n(3, "zigzag"), d4_subspace()):
        checks = run_all_checks(q)
        assert len(checks) == 12
        for c in checks:
            assert c.passed, (c.name, c.witnesses)


def test_four_way_sigma_equivalence_pointwise():
    """sigma membership = (in L, not embedded) = (in L with a sink path)
    = (sink path exists and every irreducible refinement is sectional)."""
    from dupcat.dup import dup_category

    for q in (a_n(2), a_n(3)):
        lpc = left_part_catalog(q)
        cat = annotate_catalog(knit_ind_dup(q), lpc)
        ctx = dup_category(q)
        sinks, _ = sinks_and_sources(q)
        reach = hom_reach(list(cat.modules))
        starts = {a: cat.catalog.entries.index(ctx.proj[prime(a)]) for a in sinks}
        tau_of = cat.catalog.tau_of
        all_paths = {a: list(_ar_paths(cat, s)) for a, s in starts.items()}
        for i in range(len(cat.modules)):
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
    """The full suite projects each non-projective-injective left-part
    member once for the cross-model check and once for the bijection."""
    calls = []

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(m):
            calls.append(m)
            return inner(m)

        monkeypatch.setattr(module, name, wrapper)

    counting(verify, "pi_bar")
    counting(tilting, "pi_bar")
    q = d4_subspace()
    checks = run_all_checks(q)
    assert all(c.passed for c in checks)
    members = left_part_catalog(q).non_proj_inj_members()
    assert calls
    assert len(calls) <= 2 * len(members)
