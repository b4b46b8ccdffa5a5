"""The first syzygy read inside its projective cover.

``ModuleCategory.presentation`` keeps Omega M as kernel bases in P0
coordinates and the top of Omega M as columns of them; tau and every
"pd <= 1?" read it, and no syzygy module is built.  Here tau is compared
matrix for matrix, and ``pd_at_most_one`` and ``pd`` with the oracle that
builds Omega M and its cover as modules (``oracles.presentation``), on every
entry of ind A and of ind of the duplicated algebra.  Passing runs call no
``pd`` and build no kernel module inside a presentation, and the failure
texts still carry the exact projective dimension.
"""

import itertools

import pytest

import oracles
from dupcat import cli, modcat, reps, session
from dupcat.dup import dup_category, knit_ind_dup
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import knit_ind_A, path_category
from dupcat.leftpart import left_part_catalog, verify_pd_criterion
from dupcat.linalg import RMatrix
from dupcat.quiver import Quiver, parse_quiver
from dupcat.tilting import is_tilting_module
from oracles import rebuilt

FIXTURES = ["a1", "a2", "a3_linear", "a3_zigzag", "a4", "e6"]
D4_ORIENTATIONS = list(itertools.product((False, True), repeat=3))


def _d4(outward) -> Quiver:
    """D4 with centre 1; leaf k + 2 points away from the centre when
    ``outward[k]``."""
    leaves = ["2", "3", "4"]
    arrows = [
        (f"a{k}", "1", leaf) if out else (f"a{k}", leaf, "1")
        for k, (leaf, out) in enumerate(zip(leaves, outward))
    ]
    return Quiver(["1"] + leaves, arrows)


def _quivers():
    for name in FIXTURES:
        yield pytest.param(name, id=name)
    for outward in D4_ORIENTATIONS:
        yield pytest.param(outward, id="d4-" + "".join("o" if o else "i" for o in outward))


def _quiver(fixture_dir, case) -> Quiver:
    if isinstance(case, str):
        return parse_quiver((fixture_dir / f"{case}.quiver").read_text(encoding="utf-8"))
    return _d4(case)


@pytest.mark.parametrize("case", _quivers())
def test_tau_and_pd_equal_the_oracle(fixture_dir, case):
    """On every entry of ind A and of ind of the duplicated algebra: tau read
    inside P0 equals the oracle's tau matrix for matrix (None exactly on the
    projectives), ``pd_at_most_one(m) == (pd(m) <= 1)`` with the oracle's
    projective dimension, and the library's exact pd is the oracle's.  Every
    left-part member has pd <= 1 on both routes.  The oracle solves for the
    coordinates of the Nakayama basis maps that tau reads as their values
    at the generator, and the solve is the identity on every vertex pair."""
    q = _quiver(fixture_dir, case)
    checked = 0
    for cat, entries in ((path_category(q), knit_ind_A(q).entries), (dup_category(q), knit_ind_dup(q).entries)):
        for w, z in itertools.product(cat.quiver.vertices, repeat=2):
            assert oracles.generator_values_inv(cat, w, z) == RMatrix.identity(cat.proj[z].dims[w])
        for m in entries:
            t, want = cat.tau(m), oracles.tau(cat, m)
            assert (t is None) == (want is None)
            if t is not None:
                assert t.dims == want.dims and t.mats == want.mats
            pd = oracles.pd(cat, m)
            assert cat.pd_at_most_one(m) == (pd <= 1)
            assert cat.pd(m) == pd
            checked += 1
    ctx = dup_category(q)
    members = [entries[k] for k in left_part_catalog(q).members]  # the entries of ind dup
    for m in members:
        assert ctx.pd_at_most_one(m) and ctx.pd(m) == oracles.pd(ctx, m) <= 1
    assert checked > len(members) > 0


def test_passing_runs_call_no_pd_and_build_no_syzygy(fixture_dir, monkeypatch, capsys):
    """Over passing D4 ``analyze``, ``verify`` and ``enumerate`` runs in a
    cold session, ``ModuleCategory.pd`` is called 0 times and no
    ``reps.kernel`` call happens inside a presentation, which is computed."""
    monkeypatch.setattr(session, "_sessions", {})
    pd_calls, inside, kernels_inside, presentations = [], [], [], []
    inner_pd = modcat.ModuleCategory.pd
    inner_presentation = modcat.ModuleCategory._presentation
    inner_kernel = reps.kernel

    def pd(self, m):
        pd_calls.append(m)
        return inner_pd(self, m)

    def presentation(self, m):
        presentations.append(m)
        inside.append(m)
        try:
            return inner_presentation(self, m)
        finally:
            inside.pop()

    def kernel(f):
        if inside:
            kernels_inside.append(f)
        return inner_kernel(f)

    monkeypatch.setattr(modcat.ModuleCategory, "pd", pd)
    monkeypatch.setattr(modcat.ModuleCategory, "_presentation", presentation)
    monkeypatch.setattr(reps, "kernel", kernel)
    monkeypatch.setattr(modcat, "kernel", kernel)
    for command in ("analyze", "verify", "enumerate"):
        assert cli.main([command, "--quiver", str(fixture_dir / "d4.quiver")]) == 0
    capsys.readouterr()
    assert presentations
    assert pd_calls == []
    assert kernels_inside == []


def _with_pd_table(cat, pd_table):
    """A copy of ``cat`` whose pd table is ``pd_table``."""
    copy = rebuilt(cat)
    copy.pd_table = pd_table
    return copy


@pytest.mark.parametrize("want_pd", [1, 2])
def test_pd_criterion_fails_on_a_flipped_flag_and_names_the_exact_pd(want_pd):
    """One flag of a copied D4 pd table flipped (an entry of pd 1 said to
    have pd > 1, or one of pd 2 said to have pd <= 1): the criterion FAILs
    with one witness, naming the entry and its exact projective dimension.
    The untouched catalog passes."""
    q = d4_subspace()
    cat = knit_ind_dup(q)
    assert verify_pd_criterion(cat).passed
    ctx = dup_category(q)
    k = next(i for i, m in enumerate(cat.entries) if oracles.pd(ctx, m) == want_pd)
    flipped = list(cat.pd_table)
    flipped[k] = not flipped[k]
    report = verify_pd_criterion(_with_pd_table(cat, tuple(flipped)))
    assert not report.passed
    assert len(report.witnesses) == 1
    assert report.witnesses[0].startswith(f"entry {k}: pd={want_pd} but Hom(injectives, tau)=")


def test_ext1_and_tilting_from_pd_above_one_name_the_exact_pd():
    """On D4, Ext^1 from every entry of pd 2 or 3 raises CatalogError with
    that projective dimension, and a tilting candidate holding one fails
    with a failure naming it."""
    q = d4_subspace()
    cat = knit_ind_dup(q)
    ctx = dup_category(q)
    high = [(k, oracles.pd(ctx, m)) for k, m in enumerate(cat.entries) if oracles.pd(ctx, m) > 1]
    assert {pd for _, pd in high} == {2, 3}
    for k, pd in high:
        assert not cat.pd_table[k]
        with pytest.raises(CatalogError, match=f"^Ext\\^1 from entry {k}: its projective dimension is {pd}, not <= 1$"):
            cat.ext1_dim(k, 0)
        verdict = is_tilting_module(q, [k])
        assert f"summand 0 has projective dimension {pd}" in verdict.failures


def test_pd_at_most_one_rejects_a_top_that_does_not_generate(monkeypatch):
    """With the top of Omega S_2' dropped from its kept presentation over
    A2, the summed projectives cannot cover Omega: ``pd_at_most_one``
    raises CatalogError instead of answering."""
    monkeypatch.setattr(session, "_sessions", {})
    cat = dup_category(a_n(2))
    m = next(s for s in cat.simple.values() if oracles.pd(cat, s) == 2)
    pres = cat.presentation(m)
    assert pres.omega_top and not cat.pd_at_most_one(m)
    cat._facts[("presentation", cat.content_id(m))] = pres._replace(omega_top=pres.omega_top[1:])
    with pytest.raises(CatalogError, match="the top of a syzygy spans"):
        cat.pd_at_most_one(m)
