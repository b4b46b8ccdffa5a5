"""A ``dupcat`` command leaves its heap to the OS at exit.

``cli.main`` registers ``gc.freeze`` with ``atexit``, once per process, so
the interpreter's final collections scan nothing and the catalogs and fact
tables held in reference cycles are not freed object by object.  Nothing is
frozen while the process runs: an in-process caller of ``main`` keeps
collecting its own garbage, and no output changes.
"""

import atexit
import gc
import subprocess
import sys
from pathlib import Path

import pytest

from dupcat.cli import main

# The probe is registered before main runs; atexit handlers run last in,
# first out, so it runs after the handler main registered.
_CHILD = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"frozen at exit: {gc.get_freeze_count()}\\n"))
from dupcat.cli import main
quiver, out = sys.argv[1:]
codes = [main(["verify", "--quiver", quiver, "--out", f"{out}{k}"]) for k in range(2)]
sys.stderr.write(f"frozen after main: {gc.get_freeze_count()}\\n")
sys.exit(max(codes))
"""


def _run_in_process(quiver, out, capsys):
    """Stdout and ``--out`` bytes of two in-process ``verify`` calls."""
    capsys.readouterr()
    codes = [main(["verify", "--quiver", quiver, "--out", f"{out}{k}"]) for k in range(2)]
    assert codes == [0, 0]
    return capsys.readouterr().out, [Path(f"{out}{k}").read_bytes() for k in range(2)]


def test_main_freezes_nothing_in_process_and_registers_one_handler(fixture_dir, tmp_path, capsys, monkeypatch):
    handlers = []

    def unregister(f):
        handlers[:] = [h for h in handlers if h != f]

    monkeypatch.setattr(atexit, "register", handlers.append)
    monkeypatch.setattr(atexit, "unregister", unregister)
    _run_in_process(str(fixture_dir / "d4.quiver"), tmp_path / "verify", capsys)
    assert handlers == [gc.freeze]
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_command_freezes_its_heap_at_exit_and_keeps_its_output(flags, fixture_dir, tmp_path, capsys, src_env):
    quiver = str(fixture_dir / "d4.quiver")
    stdout, outputs = _run_in_process(quiver, tmp_path / "in_process", capsys)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _CHILD, quiver, str(tmp_path / "child")],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[0] == "frozen after main: 0"
    assert lines[1].startswith("frozen at exit: ") and int(lines[1].split(": ")[1]) > 0
    assert proc.stdout == stdout
    assert [(tmp_path / f"child{k}").read_bytes() for k in range(2)] == outputs
