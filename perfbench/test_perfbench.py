"""Tests of the benchmark itself (not of dupcat).

    PYTHONPATH=src python3 -m pytest -q perfbench

Each test spawns a few small ``dupcat`` children (D4 and smaller), so the
file runs in well under a minute.
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

D4 = run.ROOT / "fixtures" / "d4.quiver"
EXACT = ("calls", "cells", "unknowns", "hits")


def _op(work, command):
    return next(op for op in run._cli_ops("d4", "D4", D4, work, "d4") if op.cls == command)


def _run(op, work, trace=False, extra=()):
    return run.run_op(op, work, trace, time.monotonic() + 120, extra)


def test_reference_values_pass_on_d4(tmp_path):
    for command in ("analyze", "verify", "enumerate", "export", "emit-dot"):
        res = _run(_op(tmp_path, command), tmp_path)
        assert res.problems == [], command


@pytest.mark.parametrize(
    "table, key, wrong, command",
    [
        ("POSITIVE_ROOTS", "D4", 13, "analyze"),
        ("CLUSTER_TILTING", "D4", 49, "enumerate"),
        ("CLUSTER_TILTING", "D4", 51, "verify"),
        ("DIGESTS", ("export", "d4"), "0" * 64, "export"),
        ("DIGESTS", ("emit-dot", "d4"), "0" * 64, "emit-dot"),
    ],
)
def test_wrong_reference_is_a_failure(tmp_path, monkeypatch, table, key, wrong, command):
    monkeypatch.setitem(getattr(reference, table), key, wrong)
    res = _run(_op(tmp_path, command), tmp_path)
    assert res.problems, f"a wrong {table}[{key!r}] was not reported"


def test_failed_operation_is_counted(tmp_path):
    op = run.Op("missing input", "analyze", ["analyze", "--quiver", str(tmp_path / "none")])
    res = _run(op, tmp_path)
    assert any("exit code" in p for p in res.problems)


def test_traced_d4_verify(tmp_path):
    plain = _run(_op(tmp_path, "verify"), tmp_path)
    untraced_report = plain.op.out.read_bytes()
    res = _run(_op(tmp_path, "verify"), tmp_path, trace=True, extra=("--keep-spans",))
    assert res.problems == []
    assert res.op.out.read_bytes() == untraced_report

    (trace,) = res.runs
    stats = trace["stats"]
    not_in_verify = {"catalog_io", "dot"}
    expected = [
        f"{module}.{attr.split('.')[-1]}"
        for module, attr, _ in layertrace.SPANS
        if module not in not_in_verify and not (module == "cli" and attr != "cmd_verify")
    ] + [f"verify.{stage}" for stage in layertrace.STAGES]
    assert [n for n in expected if stats.get(n, [0])[0] == 0] == []
    assert trace["counters"]["linalg.RMatrix.init.calls"] > 0

    spans = {s[0]: s for s in trace["spans"]}
    assert len(spans) == sum(v[0] for v in stats.values())
    for span_id, parent, name, start, end in spans.values():
        assert start <= end
        if parent:
            _, _, _, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][2])

    # every stage span sits directly under run_all_checks, around its layer span
    by_name = {}
    for s in spans.values():
        by_name.setdefault(s[2], []).append(s)
    for stage in layertrace.STAGES:
        for s in by_name[f"verify.{stage}"]:
            assert spans[s[1]][2] == "verify.run_all_checks"
    (sectional,) = by_name["leftpart.sectional_check"]
    assert spans[sectional[1]][2] == "verify.sectional_check"


def test_aliases_are_wrapped(tmp_path):
    res = _run(_op(tmp_path, "export"), tmp_path, trace=True)
    assert res.problems == []  # traced bytes still match the recorded digest
    record = json.loads((tmp_path / "child-result.json").read_text())
    bound = record["bound"]
    assert bound["reps.hom_basis"] >= 3  # reps, modcat and the package namespace
    assert bound["leftpart.sectional_check"] >= 3  # leftpart, verify and the package
    assert bound["cli.cmd_export"] >= 2  # the module and the command table


def test_missing_function_reads_zero():
    """A later change may delete a traced function; its span then reports
    zero calls instead of breaking the traced run."""
    mods = {"m": types.SimpleNamespace(f=len, C=types.SimpleNamespace(g=abs))}
    assert layertrace._lookup(mods, "m", "f") == (mods["m"], len)
    assert layertrace._lookup(mods, "m", "C.g") == (mods["m"].C, abs)
    assert layertrace._lookup(mods, "m", "gone") == (None, None)
    assert layertrace._lookup(mods, "m", "D.g") == (None, None)
    assert layertrace._lookup(mods, "other", "f") == (None, None)


def test_exact_counts_repeat(tmp_path):
    """Two traced passes over the five D4 commands give identical counts."""
    ops = run._cli_ops("d4", "D4", D4, tmp_path, "d4")
    passes = [run.run_pass(ops, tmp_path, True, time.monotonic() + 120) for _ in range(2)]
    assert [r.problems for p in passes for r in p] == [[]] * sum(map(len, passes))
    first, second = (run.per_layer([p]) for p in passes)
    assert first.keys() == {name for name, _, _ in layertrace.PER_LAYER}
    exact = [k for k in first if k.endswith(EXACT) or k.endswith("hit_ratio")]
    assert len(exact) > 20
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["reps.hom_basis.calls"][0] > 0
    assert 0 < first["modcat.hom.hit_ratio"][0] < 1


def test_cold_state(tmp_path):
    """Why every operation gets its own interpreter.

    Two fresh children do identical work.  A second run inside one process
    finds the module-level caches (keyed by ``Quiver`` equality, never
    evicted) already filled and does less, so it would measure a program no
    command-line user runs.
    """
    op = _op(tmp_path, "analyze")
    fresh = [_run(op, tmp_path, trace=True) for _ in range(2)]
    calls = [r.runs[0]["stats"]["reps.hom_basis"][0] for r in fresh]
    assert calls[0] == calls[1] > 0

    same = _run(op, tmp_path, trace=True, extra=("--repeat", "2"))
    assert same.problems == []
    in_process = [r["stats"].get("reps.hom_basis", [0])[0] for r in same.runs]
    assert in_process[0] == calls[0]
    assert in_process[1] != in_process[0]


def test_calibrated_pass(tmp_path):
    """Calibration samples run after each child for a share of its time; the
    end-to-end seconds are the raw seconds times the run's factor."""
    ops = [op for op in run._cli_ops("d4", "D4", D4, tmp_path, "d4") if op.cls != "verify"]
    samples = []
    results = run.run_pass(ops, tmp_path, False, time.monotonic() + 120, samples)
    assert [r.problems for r in results] == [[]] * len(results)
    busy = sum(r.seconds for r in results)
    slack = len(results) * max(samples)  # each child's last sample may overshoot
    assert run.CAL_SHARE * busy <= sum(samples) <= run.CAL_SHARE * busy + slack
    e2e = run.end_to_end([results], len(results), 0, scale=0.5)
    ops_s = sum(r.seconds for r in results[run.SETUP_PROBES :])
    assert e2e["wall_s"][0] == pytest.approx(0.5 * ops_s)


def test_calibration_scale():
    ref = calibrate.REFERENCE_S
    assert calibrate.scale([ref, ref]) == 1.0
    assert calibrate.scale([ref, 3 * ref]) == 0.5
    assert calibrate._eliminate() == 16 and calibrate._paths() == 6 * 2**11
    assert calibrate.sample() > 0


def test_verify_d5_inputs(tmp_path):
    ops, generated = run.build_ops("verify-d5", 3, tmp_path)
    assert [op.label for op in ops] == [f"d5-{i} verify" for i in range(1, 5)]
    assert list(generated) == ["d5-1", "d5-2", "d5-3", "d5-4"]
    assert len({inputs.orientation_key(a) for a in generated.values()}) > 1


def test_seeded_inputs_repeat():
    for graph in inputs.GRAPHS:
        assert inputs.orient(graph, 7, "w") == inputs.orient(graph, 7, "w")
        keys = {inputs.orientation_key(inputs.orient(graph, s, "w")) for s in range(40)}
        assert len(keys) > 4
    text = inputs.quiver_text("D5", inputs.orient("D5", 3, "w"))
    assert text.splitlines()[1] == "vertices 1 2 3 4 5"


def test_every_a5_orientation_has_digests():
    for bits in range(16):
        arrows = [
            (f"a{i}", *((u, v) if (bits >> i) & 1 else (v, u)))
            for i, (u, v) in enumerate(inputs.GRAPHS["A5"], start=1)
        ]
        key = "A5:" + inputs.orientation_key(arrows)
        assert ("export", key) in reference.DIGESTS and ("emit-dot", key) in reference.DIGESTS


def test_machine_record():
    rec = run.machine_record(5, "verify-d5", {"D5": inputs.orient("D5", 5, "verify-d5")})
    assert rec["seed"] == 5 and rec["why"] == run.WHY["verify-d5"]
    assert len(rec["inputs"]["D5"]) == 4
    assert {"git_sha", "python", "nproc", "cpu_model"} <= rec.keys()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layertrace.PER_LAYER
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in run.END_TO_END.items()
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
