"""Unit tests for the benchmark record (repro.obs.bench): fingerprints,
perfbench run parsing, history rows, and the per-workload regression gate."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    append_history,
    diff_history,
    format_diff,
    history_row,
    load_gates,
    machine_fingerprint,
    parse_run,
    read_history,
    write_record,
)

GATES = {"throughput_rps": ("higher", 0.25), "latency_p95_ms": ("lower", 0.25)}

#: Outputs that do not end in a detail line and a result line, built
#: from the ``perfbench_output`` fixture.
MALFORMED = {
    "empty": lambda out: "",
    "result-only": lambda out: out(setup_s=0.5).splitlines()[1],
    "not-json": lambda out: "not json\nnot json either\n",
    "swapped": lambda out: "\n".join(reversed(out(setup_s=0.5).splitlines())),
    "seed-as-text": lambda out: out(seed="1", setup_s=0.5),
    "metric-without-value": lambda out: out().splitlines()[0]
    + '\n{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"unit": "s"}}}',
}


class TestFingerprint:
    def test_fingerprint_is_stable_for_identical_machines(self):
        info = {"cpu_count": 4, "platform": "x", "python": "3.11.0"}
        a = machine_fingerprint(dict(info))
        b = machine_fingerprint(dict(info))
        assert a["fingerprint"] == b["fingerprint"]
        assert len(a["fingerprint"]) == 12

    def test_fingerprint_changes_with_machine(self):
        a = machine_fingerprint({"cpu_count": 4, "platform": "x", "python": "3.11.0"})
        b = machine_fingerprint({"cpu_count": 8, "platform": "x", "python": "3.11.0"})
        assert a["fingerprint"] != b["fingerprint"]

    def test_fingerprint_is_idempotent(self):
        once = machine_fingerprint({"cpu_count": 4, "platform": "x", "python": "3.11.0"})
        twice = machine_fingerprint(once)
        assert twice["fingerprint"] == once["fingerprint"]

    def test_default_stanza_comes_from_this_machine(self):
        stanza = machine_fingerprint()
        assert "cpu_count" in stanza and "fingerprint" in stanza


class TestParseRun:
    def test_earlier_output_is_ignored(self, perfbench_output):
        detail, result = parse_run("warming up\n" + perfbench_output(setup_s=0.5) + "\n\n")
        assert detail["workload"] == "population"
        assert result["metrics"]["setup_s"]["value"] == 0.5

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_output_is_refused(self, case, perfbench_output):
        with pytest.raises(ValueError):
            parse_run(MALFORMED[case](perfbench_output))


class TestHistoryRow:
    def test_row_extracts_every_metric_and_the_run_identity(self, perfbench_output):
        row = history_row(*parse_run(perfbench_output(seed=4, setup_s=0.5, throughput_rps=90.0)))
        assert row["schema"] == 2
        assert row["fingerprint"] == machine_fingerprint(
            {"cpu_count": 2, "platform": "test", "python": "3.11.7"}
        )["fingerprint"]
        assert (row["workload"], row["seed"], row["trace"]) == ("population", 4, 0)
        assert (row["correct"], row["attempted"], row["failed"]) == (True, 100, 0)
        assert row["metrics"] == {"setup_s": 0.5, "throughput_rps": 90.0}
        assert "timestamp" in row

    def test_failed_bitwise_rows_are_marked_invalid_not_dropped(self, perfbench_output):
        # perfbench reports a bitwise mismatch as correct=false: the row
        # is kept, marked, and the gate never counts it (see below).
        row = history_row(*parse_run(perfbench_output(correct=False, failed=3, setup_s=0.5)))
        assert (row["correct"], row["failed"]) == (False, 3)
        assert row["metrics"] == {"setup_s": 0.5}

    def test_append_and_read_round_trip(self, tmp_path, perfbench_output):
        path = tmp_path / "history.jsonl"
        rows = [history_row(*parse_run(perfbench_output(seed=s, setup_s=s))) for s in (1, 2)]
        for row in rows:
            append_history(path, row)
        assert read_history(path) == [json.loads(json.dumps(r)) for r in rows]
        assert read_history(tmp_path / "missing.jsonl") == []


class TestWriteRecord:
    def test_record_holds_the_machine_and_every_run(self, tmp_path, perfbench_output):
        runs = [parse_run(perfbench_output(w, setup_s=0.5)) for w in ("population", "serve_loopback")]
        path = tmp_path / "BENCH_batch.json"
        write_record(path, runs)
        record = json.loads(path.read_text())
        assert record["machine"] == runs[0][0]["machine"]
        assert [run["detail"]["workload"] for run in record["runs"]] == ["population", "serve_loopback"]
        assert record["runs"][0]["result"] == runs[0][1]

    def test_runs_from_two_machines_are_refused(self, tmp_path, perfbench_output):
        runs = [parse_run(perfbench_output(cpus=c, setup_s=0.5)) for c in (2, 4)]
        with pytest.raises(ValueError, match="2 machines"):
            write_record(tmp_path / "BENCH_batch.json", runs)
        assert not (tmp_path / "BENCH_batch.json").exists()


def _row(workload="population", fingerprint="abc", trace=0, correct=True, failed=0, **metrics):
    return {
        "schema": 2,
        "fingerprint": fingerprint,
        "workload": workload,
        "trace": trace,
        "correct": correct,
        "failed": failed,
        "metrics": metrics,
    }


def _rows(*p95, **kwargs):
    return [_row(latency_p95_ms=value, **kwargs) for value in p95]


def _metric(result, name="latency_p95_ms", workload="population"):
    return result["workloads"][workload]["metrics"][name]


class TestDiffHistory:
    def test_within_threshold_is_ok(self):
        result = diff_history(_rows(1.0, 1.2, 1.1, 1.2), GATES)
        assert result["status"] == "ok"
        assert _metric(result)["verdict"] == "ok"
        # Baseline is the *median* of prior rows, not the best one.
        assert _metric(result)["baseline"] == 1.1

    def test_slowdown_beyond_threshold_is_a_regression(self):
        result = diff_history(_rows(1.0, 1.0, 1.3), GATES)
        assert result["status"] == "regression"
        assert result["regressions"] == ["population.latency_p95_ms"]
        assert _metric(result)["worse"] == pytest.approx(0.3)

    def test_drop_of_a_higher_is_better_metric_is_a_regression(self):
        rows = [_row(throughput_rps=value) for value in (100.0, 100.0, 70.0)]
        result = diff_history(rows, GATES)
        assert result["regressions"] == ["population.throughput_rps"]
        # A rise is an improvement, never a regression.
        rows[-1]["metrics"]["throughput_rps"] = 300.0
        assert diff_history(rows, GATES)["status"] == "ok"

    def test_threshold_is_inclusive_at_the_limit(self):
        assert diff_history(_rows(1.0, 1.25), GATES)["status"] == "ok"

    def test_threshold_replaces_every_bound(self):
        result = diff_history(_rows(1.0, 1.3), GATES, threshold=0.5)
        assert result["status"] == "ok"
        assert _metric(result)["bound"] == 0.5

    def test_each_workload_is_gated_on_its_own_newest_row(self):
        rows = _rows(1.0, workload="serve_loopback") + _rows(1.0)
        rows += _rows(1.5, workload="serve_loopback") + _rows(1.1)
        result = diff_history(rows, GATES)
        assert result["regressions"] == ["serve_loopback.latency_p95_ms"]
        assert _metric(result)["verdict"] == "ok"

    def test_different_workloads_never_compare(self):
        rows = _rows(0.1, workload="serve_loopback") + _rows(5.0)
        result = diff_history(rows, GATES)
        assert _metric(result)["verdict"] == "no-baseline"
        assert result["status"] == "no-data"

    def test_row_carries_a_workload_signature(self):
        # Fingerprint, workload and trace flag together pick the
        # baseline; a --trace 1 row carries only per-layer metrics, so
        # nothing in it is gated.
        rows = _rows(1.0) + [_row(trace=1, **{"wire.decode_us": 9.0})]
        result = diff_history(rows, GATES)
        entry = result["workloads"]["population"]
        assert (entry["trace"], entry["baseline_rows"], entry["metrics"]) == (1, 0, {})
        assert result["status"] == "no-data"

    def test_different_fingerprints_never_compare(self):
        rows = _rows(0.01, fingerprint="other") + _rows(0.5)
        result = diff_history(rows, GATES)
        assert _metric(result)["verdict"] == "no-baseline"
        assert result["status"] == "no-data"

    def test_invalid_current_row_is_skipped(self):
        rows = _rows(1.0) + _rows(9.0, correct=False)
        result = diff_history(rows, GATES)
        assert result["workloads"]["population"]["verdict"] == "skipped-incorrect"
        assert result["status"] == "no-data"

    def test_invalid_baseline_rows_are_excluded(self):
        rows = _rows(0.01, correct=False) + _rows(0.01, failed=2) + _rows(1.0, 1.1)
        result = diff_history(rows, GATES)
        assert _metric(result)["baseline"] == 1.0
        assert result["workloads"]["population"]["baseline_rows"] == 1
        assert result["status"] == "ok"

    def test_empty_history_is_no_data(self):
        assert diff_history([], GATES)["status"] == "no-data"

    def test_explicit_baseline_rows_override_in_file_history(self):
        result = diff_history(_rows(3.0), GATES, baseline_rows=_rows(1.0))
        assert result["status"] == "regression"

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_threshold_is_refused(self, threshold):
        # nan/inf would pass any slowdown (x > nan is false); a negative
        # threshold would flag every metric.
        with pytest.raises(ValueError, match="threshold"):
            diff_history(_rows(1.0, 9.0), GATES, threshold=threshold)

    def test_zero_threshold_flags_any_slowdown(self):
        assert diff_history(_rows(1.0, 1.01), GATES, threshold=0.0)["status"] == "regression"

    def test_format_diff_mentions_regressions(self):
        text = format_diff(diff_history(_rows(1.0, 2.0), GATES))
        assert "REGRESSION in: population.latency_p95_ms" in text
        assert "worse=+100.0% (bound 25%)" in text

    def test_gates_come_from_benchmark_json(self):
        gates = load_gates()
        assert len(gates) == 8
        assert gates["throughput_rps"] == ("higher", 0.25)
        assert gates["latency_p95_ms"] == ("lower", 0.25)
