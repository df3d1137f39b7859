"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
They check that a tiny run of every workload finishes and reports every
metric ``BENCHMARK.json`` names, that a corrupted response or row counts
as a failed operation, and that a seed fixes the request stream.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

from benchlib import _children  # noqa: E402
from population_e2e import compare_rows, deviant_specs, phase_call  # noqa: E402
from run import WORKLOADS  # noqa: E402
from serve_e2e import verify_responses  # noqa: E402
from streams import SERVE_WORKLOADS, encode, phase_stream  # noqa: E402

from repro.serve.engine import solo_summary  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int) -> tuple[int, dict, dict]:
    # Two seconds, not one: a separate server's CPU is read in 10 ms
    # ticks, and a one-second run's open-loop slices are short enough
    # to read zero now and then.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def test_benchmark_json_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


# The separate-process serve workloads are not in BENCHMARK.json, but stay
# runnable, so their tiny runs are checked too.
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    code, result, detail = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == 0 and result["correct"] and result["failed"] == 0
    # Every process a run starts is waited for before the last guard.
    assert detail["stray_children_stopped"] == []
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_response_counts_as_failed():
    requests = phase_stream(SERVE_WORKLOADS["serve_tree_pool"], 5, "open", 12)
    responses = {r.request_id: {"ok": True, "summary": solo_summary(r)} for r in requests}
    assert verify_responses(requests, responses)["failed"] == 0

    bad = dict(responses)
    summary = dict(bad[requests[3].request_id]["summary"])
    summary["makespan"] = summary["makespan"] * (1 + 2**-52)
    bad[requests[3].request_id] = {"ok": True, "summary": summary}
    bad[requests[5].request_id] = {"ok": False, "error": "boom"}
    del bad[requests[7].request_id]
    check = verify_responses(requests, bad, workers=2)
    assert (check["mismatches"], check["errors"], check["missing"], check["failed"]) == (1, 1, 1, 3)
    assert _children(os.getpid()) == []


def test_corrupted_population_row_counts_as_failed():
    rows = phase_call("deviant", 5)(0).runs[:8]
    assert compare_rows(rows, rows) == 0
    bad = [dict(row) for row in rows]
    bad[2]["fines_total"] = bad[2]["fines_total"] + 1.0
    assert compare_rows(bad, rows) == 1
    assert compare_rows(bad[:-1], rows) == 2


def test_same_seed_same_stream():
    for workload in SERVE_WORKLOADS.values():
        for phase in ("warmup", "closed_mixed", "closed_truthful", "closed_deviant", "open"):
            first = phase_stream(workload, 9, phase, 40, 2)
            assert encode(first) == encode(phase_stream(workload, 9, phase, 40, 2))
            assert encode(first) != encode(phase_stream(workload, 10, phase, 40, 2))
            assert len({r.request_id for r in first}) == 40
    assert deviant_specs(20) == deviant_specs(20)
    assert sum(spec is not None for spec in deviant_specs(100)) == 30


def test_streams_exercise_every_engine_path():
    tree = SERVE_WORKLOADS["serve_tree_pool"]
    deviant = phase_stream(tree, 1, "closed_deviant", 60)
    assert all(r.deviant is not None for r in deviant)
    assert {r.topology for r in deviant} == {"chain", "star", "tree"}
    truthful = phase_stream(replace(tree, sizes=(4,)), 1, "closed_truthful", 30)
    assert all(r.deviant is None for r in truthful)
