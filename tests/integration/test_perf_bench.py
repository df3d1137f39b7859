"""Integration tests for the performance observability workflow: the
bench record with its embedded perf snapshot, the solve-cache task
counters (the old all-zeros bug), the BENCH_history.jsonl trajectory,
and the ``perf report/diff`` CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.obs.bench import read_history
from repro.obs.metrics import get_registry
from repro.experiments.runner import write_benchmark


@pytest.fixture(autouse=True)
def _clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def _tiny_bench(**overrides):
    kwargs = dict(n_networks=30, m=3, mech_m=3, mech_count=12)
    kwargs.update(overrides)
    return kwargs


class TestSolveCacheTaskCounters:
    def test_experiment_task_reports_nonzero_cache_counters(self):
        # Regression: no experiment path routed through solve_linear_cached,
        # so BENCH_batch.json recorded task_hits/task_misses as all zeros.
        # X2's interior/best-root rows now re-solve arm chains via the
        # cache, so its task delta must show real traffic.
        from repro.dlt.batch import linear_cache_clear
        from repro.experiments.runner import _call_experiment

        linear_cache_clear()
        _result, _duration, snapshot = _call_experiment("X2", None, {})
        counters = snapshot["counters"]
        assert counters.get("cache.solve_linear.task_hits", 0) > 0
        assert counters.get("cache.solve_linear.task_misses", 0) > 0


class TestBenchRecord:
    @pytest.fixture(scope="class")
    def record(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_batch.json"
        history = path.parent / "BENCH_history.jsonl"
        get_registry().reset()
        record = write_benchmark(path, history_path=history, **_tiny_bench())
        get_registry().reset()
        return {"record": record, "path": path, "history": history}

    def test_embedded_perf_snapshot_covers_all_layers(self, record):
        spans = {
            name
            for name in record["record"]["perf"]["histograms"]
            if name.startswith("perf.")
        }
        # Phase I–IV of the scalar mechanism...
        for phase in ("phase_1", "phase_2", "phase_3", "phase_4"):
            assert f"perf.mechanism.{phase}" in spans
        assert "perf.mechanism.phase_3.simulate" in spans
        # ... the batched engine with its nested phases ...
        assert "perf.mech_batch.phase_1.solve.batch_linear" in spans
        # ... the solve kernels and the resilient runtime.
        assert "perf.solve.batch_linear" in spans
        assert {"perf.runtime.setup", "perf.runtime.epoch", "perf.runtime.settlement"} <= spans

    def test_sections_are_fingerprinted_and_validity_marked(self, record):
        rec = record["record"]
        fp = rec["machine"]["fingerprint"]
        for name in ("batch_solve", "solve_cache", "mech_batch", "runtime", "byzantine_mix"):
            assert rec[name]["machine_fingerprint"] == fp
            assert rec[name]["valid"] is True

    def test_history_row_was_appended(self, record):
        rows = read_history(record["history"])
        assert len(rows) == 1
        row = rows[0]
        assert row["fingerprint"] == record["record"]["machine"]["fingerprint"]
        assert row["workload"] == "solve30x3/cache30/mech3x12"
        assert set(row["gated"]) == {"batch_solve", "mech_batch", "deviant_mix", "solve_cache"}
        assert all(entry["valid"] for entry in row["gated"].values())

    def test_history_path_none_skips_the_append(self, tmp_path):
        path = tmp_path / "BENCH.json"
        write_benchmark(path, history_path=None, **_tiny_bench())
        assert not os.path.exists(tmp_path / "BENCH_history.jsonl")

    def test_perf_report_cli_renders_span_tree_and_percentiles(self, record, capsys):
        assert main(["perf", "report", "--bench-path", str(record["path"])]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "mechanism" in out and "phase_1" in out and "runtime" in out
        assert "latency percentiles" in out
        assert "p95" in out and "p99" in out
        assert record["record"]["machine"]["fingerprint"] in out


class TestPerfReportCLI:
    def test_missing_bench_record_exits_2(self, tmp_path, capsys):
        assert main(["perf", "report", "--bench-path", str(tmp_path / "none.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_pre_profiling_record_without_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"batch_solve": {"batch_s": 0.1}}))
        assert main(["perf", "report", "--bench-path", str(path)]) == 2
        assert "no embedded perf snapshot" in capsys.readouterr().err

    def test_report_from_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps(
                {
                    "histograms": {
                        "perf.mech": {"count": 1, "total": 1.0},
                        "perf.mech.phase_1": {
                            "count": 1,
                            "total": 0.25,
                            "min": 0.25,
                            "max": 0.25,
                            "buckets": {"-8": [1, 0.25]},
                        },
                    }
                }
            )
        )
        assert main(["perf", "report", "--bench-path", "unused", "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mech" in out and "phase_1" in out


def _history_line(fingerprint, batch_s, warm_s=0.02):
    return (
        json.dumps(
            {
                "schema": 1,
                "fingerprint": fingerprint,
                "gated": {
                    "batch_solve": {"seconds": batch_s, "valid": True},
                    "solve_cache": {"seconds": warm_s, "valid": True},
                },
            }
        )
        + "\n"
    )


class TestPerfDiffCLI:
    FP = "deadbeef0123"

    def test_ok_when_newest_row_is_within_threshold(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        history.write_text(
            _history_line(self.FP, 0.10) + _history_line(self.FP, 0.11)
        )
        assert main(["perf", "diff", "--history", str(history)]) == 0
        assert "status=ok" in capsys.readouterr().out

    def test_injected_slowdown_exits_1(self, tmp_path, capsys):
        # The acceptance check: appending a synthetically slowed row must
        # flip the gate to a nonzero exit.
        history = tmp_path / "h.jsonl"
        history.write_text(
            _history_line(self.FP, 0.10) + _history_line(self.FP, 0.30)
        )
        assert main(["perf", "diff", "--history", str(history), "--threshold", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "batch_solve" in out

    def test_empty_history_seeds_baseline_and_exits_0(self, tmp_path, capsys):
        # Fresh clone: no trajectory rows yet.  The gate must skip
        # cleanly (exit 0 with a notice) so the CI bench row it just
        # appended can seed the baseline, instead of failing the build.
        assert main(["perf", "diff", "--history", str(tmp_path / "h.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "baseline not yet seeded" in out and "gate skipped" in out

    def test_foreign_fingerprint_rows_seed_baseline_and_exit_0(self, tmp_path, capsys):
        # History copied from another machine: rows exist but none share
        # the newest row's fingerprint, so there is nothing to gate —
        # skip with the seeding notice rather than erroring.
        history = tmp_path / "h.jsonl"
        history.write_text(
            _history_line("other-machine", 0.10) + _history_line(self.FP, 0.30)
        )
        assert main(["perf", "diff", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "seeds the baseline" in out

    def test_single_row_has_no_baseline_and_passes(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        history.write_text(_history_line(self.FP, 0.10))
        assert main(["perf", "diff", "--history", str(history)]) == 0
        assert "no-baseline" in capsys.readouterr().out

    def test_explicit_baseline_file(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        baseline = tmp_path / "b.jsonl"
        history.write_text(_history_line(self.FP, 0.30))
        baseline.write_text(_history_line(self.FP, 0.10))
        code = main(
            ["perf", "diff", "--history", str(history), "--baseline", str(baseline)]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
