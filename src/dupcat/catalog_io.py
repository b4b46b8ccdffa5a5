"""JSON import/export of AR catalogs.

Matrices are serialized entry-wise as exact rational strings ("p/q"), so a
round trip reproduces every structure map on the nose.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dup import DupCatalog, dup_category, dup_quiver_report, rep_to_triple
from .errors import CatalogError
from .hereditary import path_category
from .linalg import RMatrix
from .modcat import ARCatalog
from .quiver import Quiver
from .reps import Rep


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


def _ar_catalog_from_body(category, quiver, body) -> ARCatalog:
    entries = tuple(_rep_from_json(quiver, e) for e in body["entries"])
    tau_inv_of = {m: t for m, t in body["tau_links"]}
    tau_of = {t: m for m, t in tau_inv_of.items()}
    return ARCatalog(
        category,
        entries,
        tuple(bool(b) for b in body["projective"]),
        tuple(bool(b) for b in body["injective"]),
        tau_inv_of,
        tau_of,
        tuple(tuple(a) for a in body["arrows"]),
        {},
    )


def catalog_from_dict(body: dict):
    """Rebuild a catalog.  For the duplicated kind every entry's theta is
    solved here, so a body that is not a module raises CatalogError."""
    base = _quiver_from_json(body["quiver"])
    if body["kind"] == "hereditary":
        return _ar_catalog_from_body(path_category(base), base, body)
    if body["kind"] != "duplicated":
        raise CatalogError(f"unknown catalog kind {body['kind']!r}")
    report = dup_quiver_report(base)
    ar = _ar_catalog_from_body(dup_category(base), report.dup, body)
    modules = tuple(rep_to_triple(e, base) for e in ar.entries)
    for m in modules:
        m.theta  # solving for theta proves the entry is a module
    flags = body["flags"]
    return DupCatalog(
        base,
        report,
        ar,
        modules,
        tuple(bool(b) for b in flags["proj_injective"]),
        tuple(bool(b) for b in flags["in_ind_A"]),
        tuple(bool(b) for b in flags["in_L"]) if "in_L" in flags else None,
        tuple(bool(b) for b in flags["in_sigma"]) if "in_sigma" in flags else None,
    )


def dumps(body: dict) -> str:
    return json.dumps(body, indent=2, sort_keys=True)


def loads(text: str):
    return catalog_from_dict(json.loads(text))
