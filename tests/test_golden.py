"""Golden bytes: ``export`` and ``emit-dot`` on the six Dynkin fixtures must
reproduce the SHA-256 digests the benchmark records in
``perfbench/reference.py`` (loaded by path, never copied); ``enumerate`` on
the fixtures and ``export`` on one D5 orientation must reproduce the digests
written below, recorded before the projective side of the engine was
reworked (Yoneda maps by evaluation, shared sums and duals).  ``verify`` and
``enumerate`` on the E6 fixture, ``verify`` on four D5 orientations,
``verify`` on the E8 fixture and ``export`` on the E6 and E8 fixtures have
recorded digests too, and ``verify`` on the E7 fixture must pass."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from dupcat import cli

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
FIXTURES = ["a1", "a2", "a3_linear", "a3_zigzag", "a4", "d4"]


def _digests():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.DIGESTS


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("command", ["export", "emit-dot"])
def test_output_bytes_match_recorded_digest(fixture_dir, tmp_path, capsys, command, name):
    out = tmp_path / f"{name}.out"
    quiver = str(fixture_dir / f"{name}.quiver")
    assert cli.main([command, "--quiver", quiver, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _digests()[(command, name)]


ENUMERATE_DIGESTS = {
    "a1": "8dc2d2d8a9357d808119b50691b98b775cc7e223237238bd0cf39e8c92e696c0",
    "a2": "6aee2dbbdf1dbffb6e1eb38e6d1f6750e819c64d02ec78e7b84343dd60972667",
    "a3_linear": "3d5b1e970233ffefc0a58df21b106be598ecdae3ca7ffb03a6db0befc1b28750",
    "a3_zigzag": "4c39ea02b7fee5a2093f1f0d8dc24f09af2d9104a8bef1432d0290675fb7e9de",
    "a4": "dd95105345f857f79d1358df75bbc7c3e7840f48167de5fe7491527eefcb39b2",
    "d4": "acc6870d032be5694900186767edb0aab62180c65a8169f77d27199acc8187ce",
}

# D5 (the chain 1-2-3-4 with 5 attached to 3) oriented 2>1, 3>2, 4>3, 5>3.
D5_QUIVER = """# type D5, seeded orientation
vertices 1 2 3 4 5
arrow a1 2 1
arrow a2 3 2
arrow a3 4 3
arrow a4 5 3
"""
D5_EXPORT_DIGEST = "c58e5ac324662735b6b1eda0d1b2861a9ebd2457ed51367c2ea06678238e5d20"


def _digest_of_run(tmp_path, capsys, command, quiver):
    out = tmp_path / "run.out"
    assert cli.main([command, "--quiver", str(quiver), "--out", str(out)]) == 0
    capsys.readouterr()
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", FIXTURES)
def test_enumerate_bytes_match_recorded_digest(fixture_dir, tmp_path, capsys, name):
    quiver = fixture_dir / f"{name}.quiver"
    assert _digest_of_run(tmp_path, capsys, "enumerate", quiver) == ENUMERATE_DIGESTS[name]


def test_d5_export_bytes_match_recorded_digest(tmp_path, capsys):
    quiver = tmp_path / "d5.quiver"
    quiver.write_text(D5_QUIVER, encoding="utf-8")
    assert _digest_of_run(tmp_path, capsys, "export", quiver) == D5_EXPORT_DIGEST


# E6 (the chain 1-2-3-4-5 with 6 attached to 3), recorded before the AR
# quiver was read by meshes, a sectional DP and arrow-seeded reachability.
E6_DIGESTS = {
    "verify": "e3362f56266f84913aa1ba27a15604bec6d9aa255166b170c4298a9acfdf4f0d",
    "enumerate": "3db821a336f6d2355d06fff978f5af2bf7d21d51e62fa68988ef1bcff839eb8b",
}


@pytest.mark.parametrize("command", sorted(E6_DIGESTS))
def test_e6_bytes_match_recorded_digest(fixture_dir, tmp_path, capsys, command):
    quiver = fixture_dir / "e6.quiver"
    assert _digest_of_run(tmp_path, capsys, command, quiver) == E6_DIGESTS[command]


# The four seeded D5 orientations of the benchmark's verify workload, as
# vertex>vertex arrows along the edges 1-2, 2-3, 3-4, 3-5; ``verify --out``
# digests recorded before the kernel kept integral entries as ints.
D5_VERIFY_ORIENTATIONS = [
    "2>1,3>2,3>4,5>3",
    "2>1,2>3,4>3,3>5",
    "1>2,2>3,3>4,5>3",
    "2>1,3>2,4>3,3>5",
]
D5_VERIFY_DIGEST = "801a7c325e1787c27c88d0413e50599419922fd6c9a54791dfcbc58e71dda2ee"


@pytest.mark.parametrize("orientation", D5_VERIFY_ORIENTATIONS)
def test_d5_verify_bytes_match_recorded_digest(tmp_path, capsys, orientation):
    arrows = [
        f"arrow a{i} {edge.replace('>', ' ')}"
        for i, edge in enumerate(orientation.split(","), start=1)
    ]
    quiver = tmp_path / "d5.quiver"
    quiver.write_text("vertices 1 2 3 4 5\n" + "\n".join(arrows) + "\n", encoding="utf-8")
    assert _digest_of_run(tmp_path, capsys, "verify", quiver) == D5_VERIFY_DIGEST


# E8 (the chain 1-...-7 with 8 attached to 3): ``verify --out`` recorded
# before the bijection read Ext^1 off the hom table and tau read the
# presentation components at the generators.
E8_VERIFY_DIGEST = "18b2bf628ba80dcf72c1fd86700c35aabb3b12a6583c81461ac7db58541833ff"


def test_e8_verify_bytes_match_recorded_digest(fixture_dir, tmp_path, capsys):
    quiver = fixture_dir / "e8.quiver"
    assert _digest_of_run(tmp_path, capsys, "verify", quiver) == E8_VERIFY_DIGEST


# ``export --out`` on the E6 and E8 fixtures, recorded before the knit of the
# duplicated algebra took tau^{-1} on its two copies of ind A from the knit
# of ind A and read the Nakayama images of the projectives by Yoneda.
EXPORT_DIGESTS = {
    "e6": "9e534a90e67a0335461834d2cff551d2f48ddf3f142f75e0f8aae6bed625ecdf",
    "e8": "7881ffd92fa2f54e53bc73b96bab94e4b31bfad6688025a2784e8a5a629d28b8",
}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_bytes_match_recorded_digest(fixture_dir, tmp_path, capsys, name):
    quiver = fixture_dir / f"{name}.quiver"
    assert _digest_of_run(tmp_path, capsys, "export", quiver) == EXPORT_DIGESTS[name]


def test_e7_verify_passes(fixture_dir, tmp_path, capsys):
    """E7 (the chain 1-...-6 with 7 attached to 3): all twelve checks pass,
    with 4160 tilting modules on both sides of the bijection."""
    out = tmp_path / "e7.json"
    quiver = str(fixture_dir / "e7.quiver")
    assert cli.main(["verify", "--quiver", quiver, "--out", str(out)]) == 0
    assert "12/12 checks passed" in capsys.readouterr().out
    reports = json.loads(out.read_text(encoding="utf-8"))
    assert [r["passed"] for r in reports] == [True] * 12
    (bijection,) = [r for r in reports if r["check"] == "tilting-bijection"]
    assert bijection["witnesses"] == ["4160 tilting modules on both sides"]
