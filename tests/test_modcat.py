"""The projective side of the module-category engine: Yoneda maps by
evaluation at the generator, one direct sum per list of projectives and one
dual per module."""

import subprocess
import sys

import pytest

from dupcat import reps
from dupcat.dup import dup_category
from dupcat.fixtures import d4_subspace
from dupcat.hereditary import path_category, projective_rep, simple_rep
from dupcat.linalg import RMatrix, coordinates_in_span
from dupcat.reps import Rep


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
cat = ModuleCategory(q, projectives, injectives, simples, None)
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
    assert first.projections is second.projections


def test_one_dual_per_module(monkeypatch):
    cat = path_category(d4_subspace())
    m = simple_rep(cat.quiver, "1")  # the simple at the sink is not injective
    duals = []
    inner = reps.dualize

    def counting(rep, *args):
        duals.append(rep)
        return inner(rep, *args)

    monkeypatch.setattr(reps, "dualize", counting)
    assert not cat.is_injective(m)
    assert cat.tau_inv(m) is not None
    assert sum(1 for r in duals if r is m) == 1


def test_frame_is_built_once_per_vertex():
    cat = path_category(d4_subspace())
    frame = cat._frame("2")
    assert cat._frame("2") is frame
    steps, order, _ = frame
    # P_2 of the subspace orientation: the generator at 2 and its image at 1
    assert steps == [("2", None, None), ("1", 0, "al")]
    assert {v: len(i) for v, i in order.items()} == {"1": 1, "2": 1, "3": 0, "4": 0}
