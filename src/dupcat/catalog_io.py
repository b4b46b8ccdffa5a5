"""JSON import/export of AR catalogs.

Matrices are serialized entry-wise as exact rational strings ("p/q"), so a
round trip reproduces every structure map on the nose.  An imported entry
of the duplicated kind is certified to be a module of the duplicated
algebra (:func:`_certify_module`), and its flags are checked against it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dup import DupCatalog, dup_category, entry_flags
from .errors import CatalogError
from .hereditary import path_category
from .linalg import RMatrix
from .modcat import ARCatalog, ModuleCategory
from .quiver import Quiver
from .reps import Rep
from .session import session


def _matrix_to_json(m: RMatrix):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.data],
    }


def _matrix_from_json(d) -> RMatrix:
    return RMatrix(
        [[Fraction(x) for x in row] for row in d["entries"]], d["rows"], d["cols"]
    )


def _rep_to_json(r: Rep):
    return {
        "dims": {v: r.dims[v] for v in r.quiver.vertices},
        "matrices": {a.name: _matrix_to_json(r.mats[a.name]) for a in r.quiver.arrows},
    }


def _rep_from_json(q: Quiver, d) -> Rep:
    return Rep(
        q,
        d["dims"],
        {name: _matrix_from_json(m) for name, m in d["matrices"].items()},
    )


def _quiver_to_json(q: Quiver):
    return {
        "vertices": list(q.vertices),
        "arrows": [[a.name, a.source, a.target] for a in q.arrows],
    }


def _quiver_from_json(d) -> Quiver:
    return Quiver(d["vertices"], [tuple(a) for a in d["arrows"]])


def _ar_catalog_body(cat: ARCatalog):
    return {
        "entries": [_rep_to_json(e) for e in cat.entries],
        "projective": list(cat.projective),
        "injective": list(cat.injective),
        "arrows": [list(a) for a in cat.arrows],
        "tau_links": sorted([m, t] for m, t in cat.tau_inv_of.items()),
    }


def catalog_to_dict(cat: ARCatalog) -> dict:
    """Serialize a base-category catalog."""
    body = _ar_catalog_body(cat)
    body["kind"] = "hereditary"
    body["quiver"] = _quiver_to_json(cat.category.quiver)
    return body


def dup_catalog_to_dict(cat: DupCatalog) -> dict:
    """Serialize a duplicated-algebra catalog, including its flags."""
    body = _ar_catalog_body(cat.catalog)
    body["kind"] = "duplicated"
    body["quiver"] = _quiver_to_json(cat.base)
    body["flags"] = {
        "proj_injective": list(cat.proj_injective),
        "in_ind_A": list(cat.in_ind_A),
    }
    if cat.in_L is not None:
        body["flags"]["in_L"] = list(cat.in_L)
    if cat.in_sigma is not None:
        body["flags"]["in_sigma"] = list(cat.in_sigma)
    return body


def _one_per_entry(name: str, values, n: int) -> tuple:
    """``values`` as bools; CatalogError naming the field unless it has one
    value per catalog entry."""
    if len(values) != n:
        raise CatalogError(f"{name} has {len(values)} values for {n} catalog entries")
    return tuple(bool(b) for b in values)


def _ar_catalog_from_body(category, quiver, body) -> ARCatalog:
    entries = tuple(_rep_from_json(quiver, e) for e in body["entries"])
    n = len(entries)
    for name in ("arrows", "tau_links"):  # the first two items of a link are entry indices
        bad = [k for link in body[name] for k in link[:2] if not (isinstance(k, int) and 0 <= k < n)]
        if bad:
            raise CatalogError(f"{name} names entry {bad[0]!r}, but the catalog has {n} entries")
    tau_inv_of = {m: t for m, t in body["tau_links"]}
    tau_of = {t: m for m, t in tau_inv_of.items()}
    if not len(tau_of) == len(tau_inv_of) == len(body["tau_links"]):
        raise CatalogError("tau_links link one entry twice")
    return ARCatalog(
        category,
        entries,
        _one_per_entry("projective", body["projective"], n),
        _one_per_entry("injective", body["injective"], n),
        tau_inv_of,
        tau_of,
        tuple(tuple(a) for a in body["arrows"]),
        {},
    )


def _certify_module(cat: ModuleCategory, k: int, m: Rep) -> None:
    """CatalogError naming entry k, a vertex and an arrow unless m satisfies
    the relations of the algebra of ``cat``.

    For every vertex z and basis vector v of m_z, the map P_z -> m sending
    the generator to v (:meth:`ModuleCategory.yoneda_map`) must be a module
    map.  A relation r from z kills the generator of P_z, so its squares
    give m(r) v = 0; and they hold when m satisfies every relation."""
    for z in m.support:
        for e in RMatrix.identity(m.dims[z]).data:
            try:
                cat.yoneda_map(z, m, RMatrix.column(e))
            except ValueError as exc:
                raise CatalogError(f"entry {k} is not a module: at vertex {z}, the {exc}") from None


def catalog_from_dict(body: dict):
    """Rebuild a catalog.  For the duplicated kind every entry is certified
    a module (:func:`_certify_module`) and the flags ``proj_injective`` and
    ``in_ind_A`` must be those the body gives (``dup.entry_flags``); a body
    that fails raises CatalogError naming the entry."""
    base = _quiver_from_json(body["quiver"])
    if body["kind"] == "hereditary":
        return _ar_catalog_from_body(path_category(base), base, body)
    if body["kind"] != "duplicated":
        raise CatalogError(f"unknown catalog kind {body['kind']!r}")
    ar = _ar_catalog_from_body(dup_category(base), session(base).report.dup, body)
    flags = {
        name: _one_per_entry(f"flags.{name}", body["flags"][name], len(ar.entries))
        for name in ("proj_injective", "in_ind_A", "in_L", "in_sigma")
        if name in body["flags"]
    }
    for k, e in enumerate(ar.entries):
        _certify_module(ar.category, k, e)
    for name, body_says in zip(("proj_injective", "in_ind_A"), entry_flags(ar)):
        k = next((k for k, (a, b) in enumerate(zip(flags[name], body_says)) if a != b), None)
        if k is not None:
            raise CatalogError(f"entry {k}: flags.{name} is {flags[name][k]}, but its body says {body_says[k]}")
    return DupCatalog(
        base,
        ar,
        flags["proj_injective"],
        flags["in_ind_A"],
        flags.get("in_L"),
        flags.get("in_sigma"),
    )


def dumps(body: dict) -> str:
    return json.dumps(body, indent=2, sort_keys=True)
