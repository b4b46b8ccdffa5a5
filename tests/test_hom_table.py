"""The hom table of an AR catalog against the matrix route it replaced.

``ARCatalog.hom_table`` knits dim Hom(M, -) along the certified meshes; here
every entry is compared with the rank of a Hom system, Ext^1 by the AR
formula with a cokernel over a projective presentation (both from
``oracles``), and the path side with the Euler form.  A
catalog with one wrong arrow multiplicity, one extra arrow or one wrong tau
link must fail the table's certificate, also under ``python -O``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from dupcat.dup import dup_category, knit_ind_dup
from dupcat.errors import CatalogError
from dupcat.hereditary import euler_form, knit_ind_A, path_category
from dupcat.leftpart import (
    left_part_catalog,
    sectional_check,
    verify_left_part_definition,
    verify_pd_criterion,
    verify_sink_reachability,
)
from dupcat.quiver import parse_quiver
from oracles import ext1_by_bases, hom_dim_by_rank, rebuilt

THROUGH_E6 = ["a1", "a2", "a3_linear", "a3_zigzag", "a4", "d4", "e6"]
THROUGH_E7 = THROUGH_E6 + ["e7"]


def _quiver(fixture_dir, name):
    return parse_quiver((fixture_dir / f"{name}.quiver").read_text(encoding="utf-8"))


def _catalogs(q):
    """(category, AR catalog) of A and of the duplicated algebra."""
    return [(path_category(q), knit_ind_A(q)), (dup_category(q), knit_ind_dup(q).catalog)]


@pytest.mark.parametrize("name", THROUGH_E7)
def test_table_equals_hom_systems(fixture_dir, name):
    """Every ordered pair of ind A and of ind of the duplicated algebra:
    the table entry is the dimension of the Hom system's solution space."""
    for _, cat in _catalogs(_quiver(fixture_dir, name)):
        entries = cat.entries
        assert cat.hom_table == tuple(
            tuple(hom_dim_by_rank(m, n) for n in entries) for m in entries
        )


@pytest.mark.parametrize("name", THROUGH_E6)
def test_ext1_by_tau_equals_the_engine(fixture_dir, name):
    """Every pair whose source has projective dimension <= 1 (every pair of
    ind A): Ext^1 by the AR formula equals the cokernel over a projective
    presentation, and ``DupCatalog.ext1_dim`` equals it on every such pair
    and raises CatalogError from every other source."""
    q = _quiver(fixture_dir, name)
    dup = knit_ind_dup(q)
    for ctx, cat in _catalogs(q):
        for i, m in enumerate(cat.entries):
            if ctx.pd(m) <= 1:
                for j, n in enumerate(cat.entries):
                    assert cat.ext1_by_tau(i, j) == ext1_by_bases(ctx, m, n), (i, j)
    ctx = dup_category(q)
    for i, m in enumerate(dup.entries):
        for j, n in enumerate(dup.entries):
            if dup.pd_table[i]:
                assert dup.ext1_dim(i, j) == ext1_by_bases(ctx, m, n), (i, j)
            else:
                with pytest.raises(CatalogError, match=f"entry {i}: its projective dimension is"):
                    dup.ext1_dim(i, j)


@pytest.mark.parametrize("name", THROUGH_E7)
def test_euler_form_equals_the_path_table(fixture_dir, name):
    """For indecomposables of a Dynkin path algebra, dim Hom and dim Ext^1
    are the positive and negative parts of the Euler form."""
    q = _quiver(fixture_dir, name)
    cat = knit_ind_A(q)
    dims = [m.dim_vector() for m in cat.entries]
    form = euler_form(q)
    for i, x in enumerate(dims):
        for j, y in enumerate(dims):
            euler = form(x, y)
            assert cat.hom_table[i][j] == max(euler, 0), (i, j)
            assert cat.ext1_by_tau(i, j) == max(-euler, 0), (i, j)


# -- tampered catalogs ------------------------------------------------------


def _wrong_multiplicity(cat):
    (s, t, mult), *rest = cat.arrows
    return rebuilt(cat, arrows=((s, t, mult + 1), *rest))


def _extra_arrow(cat):
    """A shortcut s -> u beside a path s -> t -> u, so no cycle appears."""
    succ = {}
    for s, t, _ in cat.arrows:
        succ.setdefault(s, []).append(t)
    s, t = next((s, t) for s, t, _ in cat.arrows if t in succ)
    return rebuilt(cat, arrows=cat.arrows + ((s, succ[t][0], 1),))


def _wrong_tau_link(cat):
    """tau j := another entry, for the first non-projective entry j."""
    j, t = min(cat.tau_of.items())
    return rebuilt(cat, tau_of={**cat.tau_of, j: 1 if t == 0 else 0})


TAMPERS = [_wrong_multiplicity, _extra_arrow, _wrong_tau_link]


@pytest.mark.parametrize("name", ["a3_zigzag", "d4"])
@pytest.mark.parametrize("tamper", TAMPERS, ids=lambda f: f.__name__.strip("_"))
def test_tampered_catalog_fails_the_certificate(fixture_dir, name, tamper):
    """On a copied catalog of A and of the duplicated algebra, the tamper
    raises CatalogError from the table certificate; the checks that read
    the table raise it or FAIL."""
    q = _quiver(fixture_dir, name)
    for _, cat in _catalogs(q):
        with pytest.raises(CatalogError, match="hom table"):
            tamper(cat).hom_table
    lpc = left_part_catalog(q)
    good = knit_ind_dup(q)
    broken = rebuilt(good, catalog=tamper(good.catalog))
    for check in (verify_pd_criterion, verify_sink_reachability,
                  lambda c: verify_left_part_definition(lpc, c)):
        with pytest.raises(CatalogError, match="hom table"):
            check(broken)
    report = sectional_check(broken)
    assert not report.passed and report.witnesses[-1].startswith("hom table")
    assert good.catalog.hom_table and sectional_check(good).passed


_TAMPERED_CHILD = """
import sys
sys.path.insert(0, {tests!r})
from oracles import rebuilt
from test_hom_table import TAMPERS
from dupcat.dup import knit_ind_dup
from dupcat.errors import CatalogError
from dupcat.fixtures import d4_subspace

cat = knit_ind_dup(d4_subspace())
caught = 0
for tamper in TAMPERS:
    broken = rebuilt(cat, catalog=tamper(cat.catalog))
    try:
        broken.reach
    except CatalogError as exc:
        caught += str(exc).startswith("hom table")
raise SystemExit(0 if caught == len(TAMPERS) and cat.reach else 1)
"""


def test_tampered_catalog_fails_under_python_O(src_env):
    """The certificate raises typed errors, not asserts: under python -O
    each tamper still raises CatalogError from reachability."""
    code = _TAMPERED_CHILD.format(tests=str(Path(__file__).resolve().parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
