"""Unit tests for the benchmark-trajectory layer (repro.obs.bench):
fingerprints, section validity, history rows, and the regression gate."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    GATED_METRICS,
    annotate_sections,
    append_history,
    diff_history,
    format_diff,
    history_row,
    machine_fingerprint,
    read_history,
)


def _record(cpu_count=4, bitwise=True, batch_s=0.1, warm_s=0.02):
    return {
        "machine": {"cpu_count": cpu_count, "platform": "test", "python": "3.11.0"},
        "batch_solve": {"batch_s": batch_s, "scalar_loop_s": 1.0},
        "mech_batch": {
            "batch_s": 0.3,
            "scalar_s": 1.0,
            "bitwise_equal": bitwise,
            "deviant_mix": {"batch_s": 0.4, "bitwise_equal": bitwise},
        },
        "solve_cache": {"warm_pass_s": warm_s, "cold_pass_s": 0.2},
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


class TestAnnotateSections:
    def test_sections_get_fingerprint_and_validity(self):
        record = annotate_sections(_record(cpu_count=4))
        fp = record["machine"]["fingerprint"]
        for name in ("batch_solve", "mech_batch", "solve_cache"):
            assert record[name]["machine_fingerprint"] == fp
            assert record[name]["valid"] is True

    def test_failed_bitwise_check_invalidates_the_section(self):
        record = annotate_sections(_record(bitwise=False))
        assert record["mech_batch"]["valid"] is False
        assert "bitwise" in record["mech_batch"]["invalid_reason"]
        # Sections without a self-check stay valid.
        assert record["batch_solve"]["valid"] is True
        assert "invalid_reason" not in record["batch_solve"]

    def test_perf_snapshot_is_not_annotated(self):
        raw = _record()
        raw["perf"] = {"counters": {}, "histograms": {}}
        record = annotate_sections(raw)
        assert "valid" not in record["perf"]
        assert "machine_fingerprint" not in record["perf"]


class TestHistoryRow:
    def test_row_extracts_gated_seconds_and_cache_tasks(self):
        row = history_row(annotate_sections(_record()))
        assert row["schema"] == 1
        assert row["gated"]["batch_solve"]["seconds"] == 0.1
        assert row["gated"]["mech_batch"]["valid"] is True
        assert row["gated"]["deviant_mix"]["seconds"] == 0.4
        assert row["gated"]["solve_cache"]["seconds"] == 0.02
        assert GATED_METRICS == ("batch_solve", "mech_batch", "deviant_mix", "solve_cache")
        assert set(row["gated"]) == set(GATED_METRICS)
        assert "solve_cache_tasks" not in row
        assert row["fingerprint"] == machine_fingerprint(
            {"cpu_count": 4, "platform": "test", "python": "3.11.0"}
        )["fingerprint"]

    def test_failed_bitwise_rows_are_marked_invalid_not_dropped(self):
        row = history_row(annotate_sections(_record(bitwise=False)))
        assert row["gated"]["mech_batch"]["valid"] is False
        assert row["gated"]["deviant_mix"]["valid"] is False

    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        rows = [history_row(annotate_sections(_record(batch_s=s))) for s in (0.1, 0.12)]
        for row in rows:
            append_history(path, row)
        assert read_history(path) == [json.loads(json.dumps(r)) for r in rows]
        assert read_history(tmp_path / "missing.jsonl") == []


def _rows(*batch_seconds, fingerprint="abc", valid=True):
    return [
        {
            "fingerprint": fingerprint,
            "gated": {"batch_solve": {"seconds": s, "valid": valid}},
        }
        for s in batch_seconds
    ]


class TestDiffHistory:
    def test_within_threshold_is_ok(self):
        result = diff_history(_rows(0.10, 0.11, 0.12), threshold=0.5)
        assert result["status"] == "ok"
        assert result["metrics"]["batch_solve"]["verdict"] == "ok"
        # Baseline is the *minimum* of prior rows, not the mean.
        assert result["metrics"]["batch_solve"]["baseline_s"] == 0.10

    def test_slowdown_beyond_threshold_is_a_regression(self):
        result = diff_history(_rows(0.10, 0.20), threshold=0.5)
        assert result["status"] == "regression"
        assert result["regressions"] == ["batch_solve"]
        assert result["metrics"]["batch_solve"]["ratio"] == pytest.approx(2.0)

    def test_threshold_is_inclusive_at_the_limit(self):
        result = diff_history(_rows(0.10, 0.15), threshold=0.5)
        assert result["status"] == "ok"

    def test_different_workloads_never_compare(self):
        # A smoke-sized bench run writes tiny seconds; with a min
        # baseline it would turn every full-size run into a false
        # regression unless workloads are segregated.
        rows = _rows(0.001) + _rows(0.5)
        rows[0]["workload"] = "solve50x5/cache50/mech4x20"
        rows[1]["workload"] = "solve1000x10/cache1000/mech8x300"
        result = diff_history(rows, threshold=0.5)
        assert result["metrics"]["batch_solve"]["verdict"] == "no-baseline"

    def test_row_carries_a_workload_signature(self):
        row = history_row(annotate_sections(_record()))
        assert "workload" in row and "mech" in row["workload"]
        # The committed trajectory rows use this format; no serve suffix.
        assert "serve" not in row["workload"]

    def test_different_fingerprints_never_compare(self):
        rows = _rows(0.01, fingerprint="other") + _rows(0.5)
        result = diff_history(rows, threshold=0.5)
        assert result["metrics"]["batch_solve"]["verdict"] == "no-baseline"
        assert result["status"] == "no-data"

    def test_invalid_current_row_is_skipped(self):
        rows = _rows(0.1) + _rows(0.9, valid=False)
        result = diff_history(rows, threshold=0.5)
        assert result["metrics"]["batch_solve"]["verdict"] == "skipped-invalid"
        assert result["status"] == "no-data"

    def test_invalid_baseline_rows_are_excluded(self):
        rows = _rows(0.01, valid=False) + _rows(0.2, 0.25)
        result = diff_history(rows, threshold=0.5)
        assert result["metrics"]["batch_solve"]["baseline_s"] == 0.2
        assert result["status"] == "ok"

    def test_empty_history_is_no_data(self):
        assert diff_history([])["status"] == "no-data"

    def test_explicit_baseline_rows_override_in_file_history(self):
        current = _rows(0.3)
        baseline = _rows(0.1)
        result = diff_history(current, threshold=0.5, baseline_rows=baseline)
        assert result["status"] == "regression"

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_threshold_is_refused(self, threshold):
        # nan/inf would pass any slowdown (x > nan is false); a negative
        # threshold would flag every metric.
        with pytest.raises(ValueError, match="threshold"):
            diff_history(_rows(0.10, 9.0), threshold=threshold)

    def test_zero_threshold_flags_any_slowdown(self):
        assert diff_history(_rows(0.10, 0.11), threshold=0.0)["status"] == "regression"

    def test_format_diff_mentions_regressions(self):
        result = diff_history(_rows(0.10, 0.20), threshold=0.5)
        text = format_diff(result)
        assert "REGRESSION" in text
        assert "batch_solve" in text
        assert "ratio=2.00x" in text
