import json
import subprocess
import sys

import pytest

from dupcat.catalog_io import (
    catalog_from_dict,
    catalog_to_dict,
    dup_catalog_to_dict,
    dumps,
)
from dupcat.cli import RunConfig, main
from dupcat.dot import ar_quiver_dot
from dupcat.dup import knit_ind_dup
from dupcat.errors import CatalogError
from dupcat.fixtures import a_n, d4_subspace
from dupcat.hereditary import knit_ind_A
from dupcat.leftpart import annotate_catalog, left_part_catalog
from dupcat.reps import is_isomorphic
from dupcat.tilting import enumerate_L_tilting


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig("x.quiver", "analyze", cap=0)
    with pytest.raises(ValueError):
        RunConfig("x.quiver", "frobnicate")


def test_cli_analyze_a2(fixture_dir, capsys):
    assert main(["analyze", "--quiver", str(fixture_dir / "a2.quiver")]) == 0
    out = capsys.readouterr().out
    assert "dynkin type: A2" in out
    assert "|ind A| = 3" in out
    assert "|ind dup| = 9 (2 projective-injective)" in out
    assert "5 non-projective-injective" in out


def test_cli_analyze_kronecker(fixture_dir, capsys):
    code = main(
        ["analyze", "--quiver", str(fixture_dir / "kronecker.quiver"), "--cap", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "not Dynkin" in out
    assert "representation-infinite" in out


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


def test_dot_d4_node_shapes():
    q = d4_subspace()
    cat = annotate_catalog(knit_ind_dup(q), left_part_catalog(q))
    records = enumerate_L_tilting(q)
    dot = ar_quiver_dot(cat, records[0])
    assert dot.count("shape=circle") == 4
    assert dot.count("shape=diamond") == 4
    assert "cluster_left_part" in dot
    import re

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
        assert is_isomorphic(a, b, assume_indecomposable=True)
    assert back.projective == cat.projective
    assert back.injective == cat.injective
    assert set(back.arrows) == set(cat.arrows)
    assert back.tau_inv_of == cat.tau_inv_of


def test_catalog_json_roundtrip_dup():
    q = a_n(2)
    cat = annotate_catalog(knit_ind_dup(q), left_part_catalog(q))
    body = json.loads(dumps(dup_catalog_to_dict(cat)))
    back = catalog_from_dict(body)
    assert len(back.entries) == 9
    assert back.proj_injective == cat.proj_injective
    assert back.in_L == cat.in_L
    assert back.in_sigma == cat.in_sigma
    for a, b in zip(cat.entries, back.entries):
        assert is_isomorphic(a, b, assume_indecomposable=True)
    # triples were rebuilt from the serialized representations
    for a, b in zip(cat.modules, back.modules):
        assert a.dim_vectors() == b.dim_vectors()


_LOAD_EXPECTING_CATALOG_ERROR = """
import sys
from dupcat.catalog_io import loads
from dupcat.errors import CatalogError
try:
    loads(open(sys.argv[1], encoding="utf-8").read())
except CatalogError:
    sys.exit(0)
sys.exit(1)
"""


def test_catalog_json_import_rejects_non_module(tmp_path, src_env):
    """A connecting-arrow entry zeroed in a D4 export leaves no compatible
    theta: the import raises CatalogError, also under python -O."""
    body = json.loads(dumps(dup_catalog_to_dict(knit_ind_dup(d4_subspace()))))
    assert len(catalog_from_dict(body).modules) == 36  # the untouched export loads
    body["entries"][4]["matrices"]["D[al]"]["entries"][0][0] = "0"
    with pytest.raises(CatalogError):
        catalog_from_dict(body)
    path = tmp_path / "tampered.json"
    path.write_text(dumps(body), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _LOAD_EXPECTING_CATALOG_ERROR, str(path)],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
