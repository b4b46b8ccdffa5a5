"""The narrative demos run to completion as scripts."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_six_demos():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_cleanly(demo, src_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=src_env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
