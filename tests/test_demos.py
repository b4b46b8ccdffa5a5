"""The narrative demos run to completion as scripts and print what they
printed when their digests were recorded."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))

# SHA-256 of each demo's stdout.  Demo 06 prints the paths it writes to;
# its output directory is replaced by ``<out>`` before hashing.
STDOUT_DIGESTS = {
    "01_quivers_and_duplication": "5b5fc6290a0d9d1bb2d759cd5dc939d79077602cfb61b1c350aac3610265c280",
    "02_hereditary_module_category": "92fcddba6d38bfe8897d06ebb112d3d8fd496f772e3f9b8580142f55b805041c",
    "03_duplicated_modules": "1927a9b206c614776768c085a4c0ba08c87e4e689055da251811c05aeadff27e",
    "04_left_part_and_ext_injectives": "ba0e90d0397e4ab13f1aa3213de133efed73d80552c0fbf80a8e1ff7df493439",
    "05_tilting_bijection": "47d975913b2771bf143155934230b887dac748572c3b49be7868773b6f818e4f",
    "06_dot_and_json_export": "c44c96de926b526604a5720147c61562db56f1fe8884137883ffde4f86723fe9",
}


def test_six_demos():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_cleanly(demo, src_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=src_env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    stdout = proc.stdout.replace(str(demo.parent / "out"), "<out>")
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == STDOUT_DIGESTS[demo.stem], stdout
