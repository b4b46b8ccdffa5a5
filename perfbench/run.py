"""The dupcat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``.  One driver process runs one operation at a time
(closed loop, one client).  Every operation runs in a fresh interpreter:
``dupcat`` keeps module-level caches keyed by ``Quiver`` equality that never
evict (``hereditary._plain_cache``, ``dup._dup_cache``, ``dup._report_cache``,
``cluster._ctx_cache``), so a second operation in one process would measure
a warm program that no command-line user runs (see ``test_cold_state``).

A pass runs the workload's operations once; passes repeat while the next one
is expected to end within ``--seconds`` (at least one), and the timings are
means over passes.  An untimed set-up child runs first, so that the first
pass does not pay for compiling ``dupcat`` to bytecode.  Each pass also
spawns ``SETUP_PROBES`` children that only import ``dupcat`` and parse the
input, so that the set-up time is a median over several children.  Every
operation's output is checked against ``reference.py``; a failed check, a
non-zero exit, an exception or a timeout counts the operation as failed.

The end-to-end timings are calibrated seconds.  The host's speed drifts by
tens of percent over minutes, so after each child the driver runs a fixed
calibration sample for a share of the child's time, and every timing of the
run is scaled by the mean speed of the run's samples (``calibrate.py``).
The record line keeps the raw seconds and the factor.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` the operations run traced (``layertrace.py``)
and it carries the per-layer metrics.  The line before it records the seed,
the generated inputs and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from layertrace import PER_LAYER, layer_metrics  # noqa: E402

SETUP_PROBES = 7
# A run must end within 180 s: no operation may outlive RUN_BUDGET_S, and no
# further pass starts unless it is expected to end by PASS_BUDGET_S (and by
# ``--seconds``).
RUN_BUDGET_S = 170.0
PASS_BUDGET_S = 120.0
GUARD_CAP = 15
# Calibration samples run for CAL_SHARE of each child's seconds, right after
# it, so that they spread over the run in proportion to the time they
# calibrate.
CAL_SHARE = 0.15
# verify-d5: seeded orientations verified in one pass
D5_ORIENTATIONS = 4

FIXTURES = [
    ("a1", "A1"),
    ("a2", "A2"),
    ("a3_linear", "A3"),
    ("a3_zigzag", "A3"),
    ("a4", "A4"),
    ("d4", "D4"),
]

WHY = {
    "verify-d5": "cold `dupcat verify --out` on four seeded D5 orientations: the 12-check "
    "pipeline on the largest input whose verify repeats within a run "
    "(182 tilting modules)",
    "cli-sweep": "all five CLI commands on the Dynkin fixtures and a seeded A5, plus the "
    "Kronecker guard: set-up, small Hom systems, enumeration and JSON/DOT export; bypasses leftpart",
}


@dataclass
class Op:
    label: str
    cls: str  # verify, enumerate, analyze, export, emit-dot, guard or setup
    args: list
    check: object = None  # (stdout, out_file_bytes, problems) -> None
    out: Path | None = None


@dataclass
class OpResult:
    op: Op
    start: float
    end: float
    setup_s: float | None
    problems: list = field(default_factory=list)
    runs: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _cli_ops(tag: str, dynkin: str, quiver: Path, work: Path, digest_key: str):
    def analyze(stdout, data, problems):
        reference.check_analyze(stdout, dynkin, problems)

    def verify(stdout, data, problems):
        reference.check_verify(stdout, data.decode("utf-8"), dynkin, problems)

    def enumerate_(stdout, data, problems):
        reference.check_enumerate(stdout, dynkin, problems)

    def digest(command):
        return lambda stdout, data, problems: reference.check_digest(
            command, digest_key, data, problems
        )

    q = str(quiver)
    report, export, dot = (work / f"{tag}.{ext}" for ext in ("verify.json", "json", "dot"))
    return [
        Op(f"{tag} analyze", "analyze", ["analyze", "--quiver", q], analyze),
        Op(f"{tag} verify", "verify", ["verify", "--quiver", q, "--out", str(report)], verify, report),
        Op(f"{tag} enumerate", "enumerate", ["enumerate", "--quiver", q], enumerate_),
        Op(f"{tag} export", "export", ["export", "--quiver", q, "--out", str(export)], digest("export"), export),
        Op(f"{tag} emit-dot", "emit-dot", ["emit-dot", "--quiver", q, "--out", str(dot)], digest("emit-dot"), dot),
    ]


def _seeded_quiver(graph: str, seed: int, salt: str, work: Path, tag: str):
    arrows = inputs.orient(graph, seed, salt)
    path = work / f"{tag}.quiver"
    path.write_text(inputs.quiver_text(graph, arrows), encoding="utf-8")
    return path, arrows


def build_ops(workload: str, seed: int, work: Path):
    """The operations of one pass and the generated inputs (name -> arrows)."""
    if workload == "verify-d5":
        ops, generated = [], {}
        for i in range(1, D5_ORIENTATIONS + 1):
            tag = f"d5-{i}"
            path, generated[tag] = _seeded_quiver("D5", seed, f"{workload}:{i}", work, tag)
            ops += [op for op in _cli_ops(tag, "D5", path, work, "") if op.cls == "verify"]
        return ops, generated
    if workload == "cli-sweep":
        ops = []
        for name, dynkin in FIXTURES:
            ops += _cli_ops(name, dynkin, ROOT / "fixtures" / f"{name}.quiver", work, name)
        path, arrows = _seeded_quiver("A5", seed, workload, work, "a5")
        ops += _cli_ops("a5", "A5", path, work, "A5:" + inputs.orientation_key(arrows))
        kronecker = ROOT / "fixtures" / "kronecker.quiver"
        ops.append(
            Op(
                "kronecker analyze",
                "guard",
                ["analyze", "--quiver", str(kronecker), "--cap", str(GUARD_CAP)],
                lambda stdout, data, problems: reference.check_guard(stdout, problems),
            )
        )
        return ops, {"A5": arrows}
    raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(op: Op, work: Path, trace: bool, deadline: float, extra=()) -> OpResult:
    result_file = work / "child-result.json"
    result_file.unlink(missing_ok=True)
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(result_file)]
    kind = "setup" if op.cls == "setup" else "cli"
    argv += (["--trace"] if trace else []) + list(extra) + ["--", kind, *op.args]
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=work, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return OpResult(op, start, time.monotonic(), None, ["timed out"])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    end = time.monotonic()
    res = OpResult(op, start, end, None)
    if proc.returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        res.problems.append(f"exit code {proc.returncode} {tail}")
    try:
        record = json.loads(result_file.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        res.problems.append("no child result")
        return res
    res.setup_s = record["setup_end"] - start
    res.runs = record["runs"]
    if op.check is not None and not res.problems:
        try:
            data = op.out.read_bytes() if op.out is not None else b""
        except OSError:
            res.problems.append(f"missing output file {op.out.name}")
            return res
        op.check(stdout.decode("utf-8"), data, res.problems)
    return res


def setup_probe(ops) -> Op:
    """A child that only imports ``dupcat`` and parses the first input."""
    return Op("setup probe", "setup", [ops[0].args[ops[0].args.index("--quiver") + 1]])


def run_pass(ops, work: Path, trace: bool, deadline: float, samples=None):
    """Run the set-up probes and the operations once.  With a ``samples``
    list, calibration samples run after each child and their times are
    appended to it."""
    results, owed = [], 0.0
    for op in [setup_probe(ops)] * SETUP_PROBES + ops:
        results.append(run_op(op, work, trace=trace and op.cls != "setup", deadline=deadline))
        if samples is not None:
            owed += CAL_SHARE * results[-1].seconds
            while owed > 0:
                samples.append(calibrate.sample())
                owed -= samples[-1]
    return results


def _ops_of(results):
    return [r for r in results if r.op.cls != "setup"]


def _wall(results) -> float:
    """The operations' seconds, spawn to exit, one after another."""
    return sum(r.seconds for r in _ops_of(results))


def _class_s(results, cls: str) -> float:
    return sum(r.seconds for r in results if r.op.cls == cls)


# name -> (unit, better); values in ``end_to_end``.  Every metric applies to
# every workload: both run ``verify`` operations.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}


def end_to_end(passes, attempted: int, failed: int, scale: float) -> dict:
    """``wall_s``: the operations of one pass, each spawn to exit.
    ``verify_s``: the ``verify`` operations of a pass.  Both are means over
    passes, as the calibration factor ``scale`` is a mean over the run.
    ``setup_s``: spawn until ``dupcat`` is imported and the input parsed,
    median over the children.  These three are calibrated seconds.
    ``peak_rss_mb``: largest max-RSS of any child.  ``ok_ratio``: operations
    that passed every check, over those attempted."""
    children = [r for results in passes for r in results if r.setup_s is not None]
    values = {
        "wall_s": scale * statistics.mean(_wall(p) for p in passes),
        "verify_s": scale * statistics.mean(_class_s(p, "verify") for p in passes),
        "setup_s": scale * statistics.median([r.setup_s for r in children] or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}


def pass_layers(results) -> dict:
    """Per-layer metrics of one traced pass, summed over its children."""
    total = {}
    for r in _ops_of(results):
        if r.problems:
            continue
        for trace in r.runs:
            for key, value in layer_metrics(trace["stats"], trace["counters"]).items():
                total[key] = total.get(key, 0) + value
            total["trace.overhead_s"] = total.get("trace.overhead_s", 0.0) + trace["overhead_s"]
            if r.op.cls == "verify":
                covered = sum(
                    s for edge, s in trace["edges"].items()
                    if edge.startswith("verify.run_all_checks>")
                )
                total["trace.unspanned_s"] = (
                    total.get("trace.unspanned_s", 0.0) + r.seconds - r.setup_s - covered
                )
    for name in ("reps.split_pair", "modcat.hom"):  # hits: see layertrace.HIT_WATCH
        calls = total.get(f"{name}.calls", 0)
        total[f"{name}.hit_ratio"] = total.get(f"{name}.hits", 0) / calls if calls else 0.0
    wall = _wall(results)
    total["trace.wall_s"] = wall
    total["leftpart.sectional_check.wall_share"] = (
        total.get("leftpart.sectional_check.total_s", 0.0) / wall
    )
    for cls in ("enumerate", "guard"):
        total[f"ops.{cls}_s"] = _class_s(results, cls)
    return total


def per_layer(passes) -> dict:
    """Median over traced passes of every ``PER_LAYER`` metric (0 where the
    layer does not run)."""
    rows = [pass_layers(p) for p in passes]
    return {
        name: (statistics.median(row.get(name, 0) for row in rows), unit)
        for name, unit, _ in PER_LAYER
    }


def machine_record(seed: int, workload: str, generated) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "why": WHY[workload],
        "seed": seed,
        "inputs": {k: [list(a) for a in v] for k, v in generated.items()},
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # let a terminated benchmark still kill and reap its running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "dupcat" / "__init__.py").is_file():
        print(f"error: no dupcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, generated = build_ops(args.workload, args.seed, work)
    run_op(setup_probe(ops), work, False, deadline)  # warm-up, untimed

    passes, failures = [], []
    attempted = failed = 0
    samples = None if args.trace else []
    while True:
        results = run_pass(ops, work, bool(args.trace), deadline, samples)
        passes.append(results)
        attempted += len(results)
        failed += sum(1 for r in results if r.problems)
        failures += [f"{r.op.label}: {p}" for r in results for p in r.problems]
        elapsed = time.monotonic() - started
        if failures or elapsed * (1 + 1 / len(passes)) > min(args.seconds, PASS_BUDGET_S):
            break

    record = machine_record(args.seed, args.workload, generated)
    record["passes"] = len(passes)
    if samples:
        record["calibration"] = {
            "samples": len(samples),
            "mean_s": statistics.mean(samples),
            "scale": calibrate.scale(samples),
        }
    record["failures"] = failures
    record["ops"] = [
        {"label": r.op.label, "seconds": round(r.seconds, 4), "setup_s": r.setup_s}
        for r in passes[0]
    ]
    print(json.dumps({"record": record}))
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(passes, attempted, failed, calibrate.scale(samples))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
