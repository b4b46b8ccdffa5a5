import json
import random
import re
import subprocess
import sys

import pytest

from dupcat import catalog_io, cli, cluster
from dupcat.catalog_io import (
    catalog_from_dict,
    catalog_to_dict,
    dup_catalog_to_dict,
    dumps,
)
from dupcat.cli import main
from dupcat.dot import ar_quiver_dot
from dupcat.dup import DupCatalog, dim_vectors, dup_category, knit_ind_dup
from dupcat.errors import CatalogError, NotDynkinError
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import knit_ind_A
from dupcat.leftpart import sectional_check, verify_sink_reachability
from dupcat.quiver import parse_quiver
from dupcat.reps import is_isomorphic
from dupcat.session import session
from dupcat.tilting import enumerate_L_tilting
from oracles import rebuilt, theta


def test_cli_analyze_a2(fixture_dir, capsys):
    assert main(["analyze", "--quiver", str(fixture_dir / "a2.quiver")]) == 0
    out = capsys.readouterr().out
    assert "dynkin type: A2" in out
    assert "|ind A| = 3" in out
    assert "|ind dup| = 9 (2 projective-injective)" in out
    assert "5 non-projective-injective" in out


def test_cli_analyze_applies_the_cap_before_the_left_part(fixture_dir, capsys, monkeypatch):
    """analyze --cap knits the duplicated algebra under the cap before it
    builds the left part: on D4 at --cap 20, between |ind A| = 12 and the
    36 entries of the duplicated algebra, it reports the cap and no
    left-part line, and never asks for the left part."""
    monkeypatch.setattr(cli, "left_part_catalog", lambda q: pytest.fail("built the left part"))
    assert main(["analyze", "--quiver", str(fixture_dir / "d4.quiver"), "--cap", "20"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("|ind A| = 12\n|ind dup| > 20: representation-infinite\n")
    assert "left part" not in out and "ext-injectives" not in out


def test_cli_analyze_kronecker(fixture_dir, capsys):
    code = main(
        ["analyze", "--quiver", str(fixture_dir / "kronecker.quiver"), "--cap", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "not Dynkin" in out
    assert "representation-infinite" in out


@pytest.mark.parametrize("args", [["a2.quiver"], ["kronecker.quiver", "--cap", "8"]])
def test_cli_analyze_out_writes_the_printed_report(args, fixture_dir, capsys, tmp_path):
    """analyze --out writes to the file exactly the report that analyze
    prints without it, and prints nothing."""
    argv = ["analyze", "--quiver", str(fixture_dir / args[0])] + args[1:]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out_file = tmp_path / "analysis.txt"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_text(encoding="utf-8") == printed


def test_cli_verify_a2(fixture_dir, capsys, tmp_path):
    report = tmp_path / "report.json"
    code = main(
        ["verify", "--quiver", str(fixture_dir / "a2.quiver"), "--out", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] tilting-bijection" in out
    assert "12/12 checks passed" in out
    payload = json.loads(report.read_text())
    assert all(entry["passed"] for entry in payload)


def test_cli_verify_rejects_non_dynkin(fixture_dir, capsys):
    code = main(["verify", "--quiver", str(fixture_dir / "kronecker.quiver")])
    assert code == 2
    assert "Dynkin" in capsys.readouterr().err


def test_cli_enumerate_a2(fixture_dir, capsys, tmp_path):
    out_file = tmp_path / "enum.json"
    code = main(
        ["enumerate", "--quiver", str(fixture_dir / "a2.quiver"), "--out", str(out_file)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "tilting modules with left-part free summands = 5" in out
    assert "bijection: verified" in out
    payload = json.loads(out_file.read_text())
    assert payload["counts"] == {"tilting": 5, "cluster": 5, "expected": 5}
    assert len(payload["tilting_modules"]) == 5


def test_cli_enumerate_names_each_position_once(fixture_dir, capsys, tmp_path, monkeypatch):
    """enumerate --out names each position of the fundamental domain once,
    when its session builds the domain, not once per cluster-tilting set
    it lies in (D4: 16 positions in 50 sets of 4); the sets it names are
    tuples of positions, plain ints."""
    monkeypatch.setattr("dupcat.session._sessions", {})
    built, reports = [], []
    build, bijection = cluster.build_fundamental_domain, cli.verify_bijection

    def counting(q):
        built.append(build(q))
        return built[-1]

    def keeping(q):
        reports.append(bijection(q))
        return reports[-1]

    monkeypatch.setattr(cluster, "build_fundamental_domain", counting)
    monkeypatch.setattr(cli, "verify_bijection", keeping)
    out_file = tmp_path / "enum.json"
    assert main(["enumerate", "--quiver", str(fixture_dir / "d4.quiver"), "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert len(built) == len(reports) == 1
    names = built[0].names
    assert len(names) == len(set(names)) == 16
    payload = json.loads(out_file.read_text())
    assert len(payload["cluster_tilting"]) == 50
    assert payload["cluster_tilting"] == [sorted(names[k] for k in s) for s in reports[0].cluster_sets]
    assert {type(k) for s in reports[0].cluster_sets for k in s} == {int}


def test_cli_enumerate_applies_the_cap_before_the_bijection(fixture_dir, capsys, monkeypatch):
    """enumerate --cap fails on the knit of ind A, and on that of the
    duplicated algebra, with verify's message, before any tilting module is
    enumerated; a non-Dynkin quiver still fails on the Dynkin guard, before
    any knit."""
    monkeypatch.setattr(cli, "verify_bijection", lambda q: pytest.fail("ran the bijection"))
    e6 = str(fixture_dir / "e6.quiver")
    assert main(["verify", "--quiver", e6, "--cap", "5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: more than 5 indecomposables; representation-infinite\n"
    assert main(["enumerate", "--quiver", e6, "--cap", "5"]) == 2
    assert capsys.readouterr().err == err
    # D4 has 12 indecomposables and its duplicated algebra 36
    d4 = str(fixture_dir / "d4.quiver")
    assert main(["verify", "--quiver", d4, "--cap", "20"]) == 2
    err = capsys.readouterr().err
    assert err == "error: more than 20 indecomposables; representation-infinite\n"
    assert main(["enumerate", "--quiver", d4, "--cap", "20"]) == 2
    assert capsys.readouterr().err == err
    assert main(["enumerate", "--quiver", str(fixture_dir / "kronecker.quiver")]) == 2
    assert capsys.readouterr().err == "error: tilting enumeration requires Dynkin type\n"


def test_cli_emit_dot_and_export(fixture_dir, tmp_path, capsys):
    dot_file = tmp_path / "ar.dot"
    code = main(
        [
            "emit-dot",
            "--quiver",
            str(fixture_dir / "a2.quiver"),
            "--out",
            str(dot_file),
        ]
    )
    assert code == 0
    dot = dot_file.read_text()
    assert dot.count("shape=circle") == 2
    assert "cluster_left_part" in dot
    export_file = tmp_path / "catalogs.json"
    code = main(
        [
            "export",
            "--quiver",
            str(fixture_dir / "a2.quiver"),
            "--out",
            str(export_file),
        ]
    )
    assert code == 0
    payload = json.loads(export_file.read_text())
    assert payload["ind_A"]["kind"] == "hereditary"
    assert len(payload["ind_dup"]["entries"]) == 9


def test_cli_bad_file(tmp_path, capsys):
    assert main(["analyze", "--quiver", str(tmp_path / "missing.quiver")]) == 2
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertices 1\narrow a 1 1\n")
    assert main(["analyze", "--quiver", str(bad)]) == 2


def _bad_input(case, fixture_dir, tmp_path):
    a1 = str(fixture_dir / "a1.quiver")
    if case == "cap-zero":
        return ["analyze", "--quiver", a1, "--cap", "0"]
    if case == "unknown-command":
        return ["frobnicate", "--quiver", a1]
    if case == "quiver-is-a-directory":
        return ["analyze", "--quiver", str(fixture_dir)]
    if case == "quiver-not-utf8":
        bad = tmp_path / "latin1.quiver"
        bad.write_bytes("# caf\u00e9\nvertices 1\n".encode("latin-1"))
        return ["analyze", "--quiver", str(bad)]
    return ["export", "--quiver", a1, "--out", str(tmp_path)]  # out-is-a-directory


@pytest.mark.parametrize(
    "case",
    ["cap-zero", "unknown-command", "quiver-is-a-directory", "quiver-not-utf8", "out-is-a-directory"],
)
def test_cli_bad_input_exits_2_without_traceback(case, fixture_dir, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "dupcat.cli", *_bad_input(case, fixture_dir, tmp_path)],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_non_utf8_quiver_names_the_file(tmp_path, src_env):
    bad = tmp_path / "binary.quiver"
    bad.write_bytes(b"\xffvertices 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "dupcat.cli", "analyze", "--quiver", str(bad)],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {bad} is not UTF-8 text")
    assert "Traceback" not in proc.stderr


def test_dot_d4_node_shapes():
    q = d4_subspace()
    cat = knit_ind_dup(q)
    free = enumerate_L_tilting(q)[0]
    dot = ar_quiver_dot(cat, free)
    assert dot.count("shape=circle") == 4
    assert dot.count("shape=diamond") == 4
    assert {int(k) for k in re.findall(r"n(\d+) \[[^]]*shape=diamond", dot)} == set(free)
    assert "cluster_left_part" in dot

    node_lines = [
        line for line in dot.splitlines() if re.match(r"\s*n\d+ \[", line)
    ]
    assert len(node_lines) == 36


def test_catalog_json_roundtrip_hereditary():
    cat = knit_ind_A(a_n(3))
    body = json.loads(json.dumps(catalog_to_dict(cat)))
    back = catalog_from_dict(body)
    assert len(back.entries) == len(cat.entries)
    for a, b in zip(cat.entries, back.entries):
        assert is_isomorphic(a, b)
    assert back.projective == cat.projective
    assert back.injective == cat.injective
    assert set(back.arrows) == set(cat.arrows)
    assert back.tau_inv_of == cat.tau_inv_of


def test_catalog_json_roundtrip_dup():
    q = a_n(2)
    cat = knit_ind_dup(q)
    body = json.loads(dumps(dup_catalog_to_dict(cat)))
    back = catalog_from_dict(body)
    assert len(back.entries) == 9
    assert back.proj_injective == cat.proj_injective
    assert back.in_L == cat.in_L
    assert back.in_sigma == cat.in_sigma
    for a, b in zip(cat.entries, back.entries):
        assert is_isomorphic(a, b)
    # the halves (X, Y) of every entry survive the round trip
    for a, b in zip(cat.entries, back.entries):
        assert dim_vectors(a) == dim_vectors(b)


def test_sink_checks_pass_on_an_imported_d4_catalog():
    """Sink reachability and the sectional check take P_a' at its place in
    the vertex order, so both pass on a D4 catalog rebuilt from its export,
    whose entries are not the session's objects; looked up by identity,
    P_a' was not found there and both raised a bare ValueError."""
    good = knit_ind_dup(d4_subspace())
    back = catalog_from_dict(json.loads(dumps(dup_catalog_to_dict(good))))
    assert not set(map(id, back.entries)) & set(map(id, good.entries))
    for check in (verify_sink_reachability, sectional_check):
        report = check(back)
        assert report.passed and report.as_dict() == check(good).as_dict(), report.witnesses


def test_left_part_flags_refuse_a_catalog_in_another_order():
    """The left part holds entry indices of the session's knit, so a catalog
    listing the entries in another order has no left-part flags."""
    q = a_n(2)
    good = knit_ind_dup(q)
    *head, one, two = good.entries
    swapped = DupCatalog(q, rebuilt(good.catalog, entries=(*head, two, one)))
    for flags in (lambda c: c.in_L, lambda c: c.in_sigma):
        with pytest.raises(CatalogError, match="in another order"):
            flags(swapped)
    assert sum(good.in_L) == 7


def _a2_dup_body():
    q = a_n(2)
    cat = knit_ind_dup(q)
    return json.loads(dumps(dup_catalog_to_dict(cat)))


def _truncate(field):
    def tamper(body):
        *path, name = field.split(".")
        for key in path:
            body = body[key]
        body[name] = body[name][:1]
    return tamper


def _repeat_tau_source(body):
    (m, _), (_, t) = body["tau_links"][:2]
    body["tau_links"].append([m, t])


# test id -> (the field the error names, the tampering)
_MISFITS = {
    "projective": ("projective", lambda body: body.update(projective=body["projective"][:2])),
    "injective": ("injective", lambda body: body["injective"].append(True)),
    **{
        f"flags.{f}": (f"flags.{f}", _truncate(f"flags.{f}"))
        for f in ("proj_injective", "in_ind_A", "in_L", "in_sigma")
    },
    "arrows": ("arrows", lambda body: body["arrows"].append([0, 99, 1])),
    "arrows-string-index": ("arrows", lambda body: body["arrows"][0].__setitem__(0, "0")),
    "tau_links": ("tau_links", lambda body: body["tau_links"].append([99, 0])),
    "tau_links-repeated-source": ("tau_links", _repeat_tau_source),
}


def test_catalog_json_round_trip_is_byte_identical():
    text = dumps(_a2_dup_body())
    assert dumps(dup_catalog_to_dict(catalog_from_dict(json.loads(text)))) == text
    text = dumps(catalog_to_dict(knit_ind_A(d4_subspace())))
    assert dumps(catalog_to_dict(catalog_from_dict(json.loads(text)))) == text


@pytest.mark.parametrize("misfit", sorted(_MISFITS))
def test_catalog_json_import_rejects_lists_that_do_not_fit_the_entries(misfit):
    """A list with other than one value per entry, a link to an entry index
    out of range or not an int, or two tau links from one entry, raises
    CatalogError naming the field."""
    body = _a2_dup_body()
    field, tamper = _MISFITS[misfit]
    tamper(body)
    with pytest.raises(CatalogError, match=rf"^{re.escape(field)} "):
        catalog_from_dict(body)


_NOT_A_MODULE = "entry 4 is not a module: at vertex 1', the square at arrow be does not commute"

_LOAD_EXPECTING_CATALOG_ERROR = """
import json, sys
from dupcat.catalog_io import catalog_from_dict
from dupcat.errors import CatalogError, NotDynkinError
try:
    catalog_from_dict(json.loads(open(sys.argv[1], encoding="utf-8").read()))
except CatalogError as exc:
    sys.exit(0 if str(exc) == sys.argv[2] else 2)
sys.exit(1)
"""


def test_catalog_json_import_rejects_non_module(tmp_path, src_env):
    """A connecting-arrow entry zeroed in a D4 export breaks a relation of
    the duplicated algebra (no compatible theta exists either): the import
    raises CatalogError naming the entry, the vertex and the arrow, also
    under python -O."""
    body = json.loads(dumps(dup_catalog_to_dict(knit_ind_dup(d4_subspace()))))
    assert len(catalog_from_dict(body).entries) == 36  # the untouched export loads
    body["entries"][4]["matrices"]["D[al]"]["entries"][0][0] = "0"
    with pytest.raises(CatalogError, match=f"^{re.escape(_NOT_A_MODULE)}$"):
        catalog_from_dict(body)
    path = tmp_path / "tampered.json"
    path.write_text(dumps(body), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _LOAD_EXPECTING_CATALOG_ERROR, str(path), _NOT_A_MODULE],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# test id -> (body, path of the flag list, entry flipped, message); in the
# D4 export entry 0 is P_1, projective but not injective, in ind A and not
# Ext-injective in the left part, entry 4 (P_1') has a nonzero primed half
# and entry 5 lies outside the left part; in the A3 one entry 0 is P_1
_FLAG_TAMPERS = {
    "in_ind_A": ("d4", ("flags", "in_ind_A"), 4, "entry 4: flags.in_ind_A is True, but its body says False"),
    "proj_injective": ("d4", ("flags", "proj_injective"), 0,
                       "entry 0: flags.proj_injective is True, but its body says False"),
    "in_L": ("d4", ("flags", "in_L"), 5, "entry 5: flags.in_L is True, but its body says False"),
    "in_sigma": ("d4", ("flags", "in_sigma"), 0, "entry 0: flags.in_sigma is True, but its body says False"),
    "projective": ("d4", ("projective",), 0, "entry 0: projective is False, but its body says True"),
    "injective": ("d4", ("injective",), 0, "entry 0: injective is True, but its body says False"),
    "hereditary-projective": ("a3", ("projective",), 0, "entry 0: projective is False, but its body says True"),
    "hereditary-injective": ("a3", ("injective",), 0, "entry 0: injective is True, but its body says False"),
}


def _exported(name):
    """The JSON body `export` writes for ind of the duplicated algebra of D4
    (``d4``) or for ind A of A3 (``a3``)."""
    if name == "d4":
        return json.loads(dumps(dup_catalog_to_dict(knit_ind_dup(d4_subspace()))))
    return json.loads(dumps(catalog_to_dict(knit_ind_A(a_n(3)))))


def _rejects_in_process_and_under_O(body, message, tmp_path, src_env):
    with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
        catalog_from_dict(body)
    path = tmp_path / "tampered.json"
    path.write_text(dumps(body), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _LOAD_EXPECTING_CATALOG_ERROR, str(path), message],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("flag", sorted(_FLAG_TAMPERS))
def test_catalog_json_import_rejects_a_flag_its_body_contradicts(flag, tmp_path, src_env):
    """Every flag is read off the rebuilt catalog, so an export with one
    flag flipped against it raises CatalogError naming the entry and the
    flag, also under python -O."""
    name, path, k, message = _FLAG_TAMPERS[flag]
    body = _exported(name)
    *parents, field = path
    holder = body
    for key in parents:
        holder = holder[key]
    assert catalog_from_dict(body) is not None  # the untouched export loads
    holder[field][k] = not holder[field][k]
    _rejects_in_process_and_under_O(body, message, tmp_path, src_env)


def _without(path):
    def tamper(body):
        *parents, name = path
        for key in parents:
            body = body[key]
        del body[name]
    return tamper


def _dims_off(body):
    entry = body["entries"][0]
    entry["dims"]["1"] += 1


# test id -> (the tampering of the A2 export, message)
_MALFORMED = {
    "no-flags": (_without(["flags"]), "flags is missing"),
    "no-in_ind_A": (_without(["flags", "in_ind_A"]), "flags.in_ind_A is missing"),
    "no-entries": (_without(["entries"]), "entries is missing"),
    "no-quiver-arrows": (_without(["quiver", "arrows"]), "quiver.arrows is missing"),
    "one-index-tau-link": (lambda body: body["tau_links"].append([0]), "tau_links has the link [0], not a list of 2 items"),
    "two-item-arrow": (lambda body: body["arrows"][0].pop(), "arrows has the link [0, 1], not a list of 3 items"),
    "dims-against-matrices": (_dims_off, "entry 0: matrix for arrow a2 has shape (1, 0), expected (2, 0)"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_catalog_json_import_names_the_malformed_field(case, tmp_path, src_env):
    """A body with a field missing, a link of the wrong length or an entry
    whose dimensions disagree with its matrices raises CatalogError naming
    the field, in process and under python -O."""
    tamper, message = _MALFORMED[case]
    body = _a2_dup_body()
    tamper(body)
    _rejects_in_process_and_under_O(body, message, tmp_path, src_env)


# test id -> (the field, the link's position, the item changed, its new
# value, the end of the message); JSON has no tuple, and True loads as a bool
_LINK_ITEMS = {
    "string-multiplicity": ("arrows", 0, 2, "1", "whose items are not all ints"),
    "true-multiplicity": ("arrows", 0, 2, True, "whose items are not all ints"),
    "true-arrow-source": ("arrows", 0, 0, True, "whose items are not all ints"),
    "true-tau-link-entry": ("tau_links", 0, 1, True, "whose items are not all ints"),
    "zero-multiplicity": ("arrows", 0, 2, 0, "whose multiplicity is below 1"),
    "negative-multiplicity": ("arrows", 1, 2, -1, "whose multiplicity is below 1"),
}


@pytest.mark.parametrize("case", sorted(_LINK_ITEMS))
def test_catalog_json_import_takes_only_plain_int_links(case, tmp_path, src_env):
    """Every item of an arrow or a tau link must be an int and no bool, and
    an arrow's multiplicity at least 1, or the import raises CatalogError
    naming the link, in process and under python -O; a string multiplicity
    once imported, and the hom table then raised a bare TypeError."""
    field, position, item, value, reason = _LINK_ITEMS[case]
    body = _a2_dup_body()
    link = body[field][position]
    link[item] = value
    _rejects_in_process_and_under_O(body, f"{field} has the link {link!r}, {reason}", tmp_path, src_env)


def test_export_of_a_non_dynkin_quiver_has_no_left_part_flags(tmp_path, capsys):
    """A2 + A1 is representation-finite but not Dynkin: its export lists
    only the flags read off the catalog, imports back to the same bytes,
    and the imported catalog's left-part flags raise NotDynkinError."""
    path = tmp_path / "a2_a1.quiver"
    path.write_text("vertices 1 2 3\narrow a 2 1\n", encoding="utf-8")
    out = tmp_path / "export.json"
    assert main(["export", "--quiver", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    body = payload["ind_dup"]
    assert sorted(body["flags"]) == ["in_ind_A", "proj_injective"]
    back = catalog_from_dict(body)
    assert dumps(dup_catalog_to_dict(back)) == dumps(body)
    assert dumps(catalog_to_dict(catalog_from_dict(payload["ind_A"]))) == dumps(payload["ind_A"])
    with pytest.raises(NotDynkinError):
        back.in_L
    with pytest.raises(NotDynkinError):
        back.in_sigma


def _tampered_cells(fixture_dir, name, sample):
    """(quiver, entry index, the entry with one matrix cell tampered) for
    every cell of the duplicated-algebra export of fixture ``name``, or a
    derandomized sample of ``sample`` of them: a nonzero cell becomes "0",
    and "0" becomes "1"."""
    q = parse_quiver((fixture_dir / f"{name}.quiver").read_text(encoding="utf-8"))
    body = json.loads(dumps(dup_catalog_to_dict(knit_ind_dup(q))))
    cells = [
        (k, a, i, j)
        for k, e in enumerate(body["entries"])
        for a, m in e["matrices"].items()
        for i, row in enumerate(m["entries"])
        for j in range(len(row))
    ]
    if sample is not None:
        cells = random.Random(0).sample(cells, sample)
    for k, a, i, j in cells:
        entry = json.loads(json.dumps(body["entries"][k]))
        row = entry["matrices"][a]["entries"][i]
        row[j] = "1" if row[j] == "0" else "0"
        yield q, k, entry


@pytest.mark.parametrize("name, sample, cases", [("d4", None, 66), ("e6", 400, 400)], ids=["D4", "E6"])
def test_import_check_rejects_exactly_what_theta_rejects(fixture_dir, name, sample, cases):
    """Tampered one matrix cell at a time, an entry fails the import's
    Yoneda check exactly when the triple model's theta (the test oracle)
    has no unique solution; some do, and the check names the entry."""
    verdicts = []
    for q, k, entry in _tampered_cells(fixture_dir, name, sample):
        m = catalog_io._rep_from_json(session(q).report.dup, entry)
        try:
            catalog_io._certify_module(dup_category(q), k, m)
            yoneda = True
        except CatalogError as exc:
            assert str(exc).startswith(f"entry {k} is not a module: at vertex ")
            yoneda = False
        try:
            theta(m, q)
            oracle = True
        except CatalogError:
            oracle = False
        verdicts.append((yoneda, oracle))
    assert len(verdicts) == cases
    assert all(yoneda == oracle for yoneda, oracle in verdicts)
    assert 0 < sum(not yoneda for yoneda, _ in verdicts) < cases


def test_cli_verify_same_bytes_under_optimize(fixture_dir, tmp_path, src_env):
    """Stripping asserts changes nothing: ``python -O`` prints the same
    report and writes the same JSON as a normal run."""
    quiver = str(fixture_dir / "d4.quiver")
    runs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"verify{''.join(flags)}.json"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "dupcat.cli", "verify", "--quiver", quiver,
             "--out", str(out)],
            env=src_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]
