"""JSON import/export of AR catalogs.

Matrices are serialized entry-wise as exact rational strings ("p/q"), so a
round trip reproduces every structure map on the nose.  An import checks
every flag a body lists against the catalog it rebuilds, whose flags are
read off its structure, and raises CatalogError naming the field of a
malformed body.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dup import DupCatalog, dup_category
from .errors import CatalogError
from .hereditary import path_category
from .linalg import RMatrix
from .modcat import ARCatalog, ModuleCategory
from .quiver import Quiver, classify_dynkin
from .reps import Rep
from .session import session


def _matrix_to_json(m: RMatrix):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.data],
    }


def _matrix_from_json(d) -> RMatrix:
    rows = [[Fraction(x) for x in row] for row in _field(d, "entries")]
    return RMatrix(rows, _field(d, "rows"), _field(d, "cols"))


def _rep_to_json(r: Rep):
    return {
        "dims": {v: r.dims[v] for v in r.quiver.vertices},
        "matrices": {a.name: _matrix_to_json(r.mats[a.name]) for a in r.quiver.arrows},
    }


def _rep_from_json(q: Quiver, d) -> Rep:
    mats = {name: _matrix_from_json(m) for name, m in _field(d, "matrices").items()}
    return Rep(q, _field(d, "dims"), mats)


def _quiver_to_json(q: Quiver):
    return {
        "vertices": list(q.vertices),
        "arrows": [[a.name, a.source, a.target] for a in q.arrows],
    }


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
    """Serialize a duplicated-algebra catalog with its flags, the left-part
    flags exactly when the base quiver is Dynkin."""
    body = _ar_catalog_body(cat.catalog)
    body["kind"] = "duplicated"
    body["quiver"] = _quiver_to_json(cat.base)
    body["flags"] = {
        "proj_injective": list(cat.proj_injective),
        "in_ind_A": list(cat.in_ind_A),
    }
    if classify_dynkin(cat.base) is not None:
        body["flags"]["in_L"] = list(cat.in_L)
        body["flags"]["in_sigma"] = list(cat.in_sigma)
    return body


def _field(body, path: str):
    """The value at the dotted ``path`` of a body; CatalogError naming the
    first field on it that is missing."""
    keys = path.split(".")
    for k, key in enumerate(keys):
        if not isinstance(body, dict) or key not in body:
            raise CatalogError(f"{'.'.join(keys[: k + 1])} is missing")
        body = body[key]
    return body


def _check_flag(name: str, given, derived: tuple) -> None:
    """CatalogError naming the field unless the flag list a body gives has
    one value per catalog entry, and naming the entry and the field unless
    each value is the one ``derived`` from the rebuilt catalog."""
    if not (isinstance(given, list) and len(given) == len(derived)):
        raise CatalogError(f"{name} is not a list of {len(derived)} values, one per catalog entry")
    k = next((k for k, (a, b) in enumerate(zip(given, derived)) if a != b), None)
    if k is not None:
        raise CatalogError(f"entry {k}: {name} is {given[k]}, but its body says {derived[k]}")


def _ar_catalog_from_body(category, quiver, body) -> ARCatalog:
    entries = []
    for k, e in enumerate(_field(body, "entries")):
        try:
            entries.append(_rep_from_json(quiver, e))
        except (CatalogError, ValueError) as exc:
            raise CatalogError(f"entry {k}: {exc}") from None
    n = len(entries)
    # an arrow is (source, target, multiplicity), a tau link (M, tau^{-1} M)
    for name, length in (("arrows", 3), ("tau_links", 2)):
        links = _field(body, name)
        short = next((link for link in links if not (isinstance(link, list) and len(link) == length)), None)
        if short is not None:
            raise CatalogError(f"{name} has the link {short!r}, not a list of {length} items")
        bad = [k for link in links for k in link[:2] if not (isinstance(k, int) and 0 <= k < n)]
        if bad:
            raise CatalogError(f"{name} names entry {bad[0]!r}, but the catalog has {n} entries")
    tau_inv_of = {m: t for m, t in body["tau_links"]}
    tau_of = {t: m for m, t in tau_inv_of.items()}
    if not len(tau_of) == len(tau_inv_of) == len(body["tau_links"]):
        raise CatalogError("tau_links link one entry twice")
    ar = ARCatalog(category, tuple(entries), tau_inv_of, tau_of, tuple(tuple(a) for a in body["arrows"]), {})
    _check_flag("projective", _field(body, "projective"), ar.projective)
    _check_flag("injective", _field(body, "injective"), ar.injective)
    return ar


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
    """Rebuild an ARCatalog (hereditary kind) or a DupCatalog (duplicated
    kind), certifying each entry of the latter a module
    (:func:`_certify_module`).  Every flag list the body gives must equal
    the one read off the rebuilt catalog (``flags.in_L`` and
    ``flags.in_sigma`` are optional); a body that fails raises CatalogError
    naming the field, and the entry where there is one."""
    base = Quiver(_field(body, "quiver.vertices"), [tuple(a) for a in _field(body, "quiver.arrows")])
    kind = _field(body, "kind")
    if kind == "hereditary":
        return _ar_catalog_from_body(path_category(base), base, body)
    if kind != "duplicated":
        raise CatalogError(f"unknown catalog kind {kind!r}")
    ar = _ar_catalog_from_body(dup_category(base), session(base).report.dup, body)
    for k, e in enumerate(ar.entries):
        _certify_module(ar.category, k, e)
    cat = DupCatalog(base, ar)
    _check_flag("flags.proj_injective", _field(body, "flags.proj_injective"), cat.proj_injective)
    _check_flag("flags.in_ind_A", _field(body, "flags.in_ind_A"), cat.in_ind_A)
    if "in_L" in body["flags"]:
        _check_flag("flags.in_L", body["flags"]["in_L"], cat.in_L)
    if "in_sigma" in body["flags"]:
        _check_flag("flags.in_sigma", body["flags"]["in_sigma"], cat.in_sigma)
    return cat


def dumps(body: dict) -> str:
    return json.dumps(body, indent=2, sort_keys=True)
