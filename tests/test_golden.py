"""Golden bytes: ``export`` and ``emit-dot`` on the six Dynkin fixtures must
reproduce the SHA-256 digests the benchmark records in
``perfbench/reference.py`` (loaded by path, never copied)."""

import hashlib
import importlib.util
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
