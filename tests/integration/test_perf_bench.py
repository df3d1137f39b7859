"""Integration tests for the performance workflow: the perf spans one
collecting() scope records across every layer, the solve-cache task
counters (the old all-zeros bug), ``perf record`` of perfbench output
into BENCH_batch.json and BENCH_history.jsonl, and ``perf report/diff``."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.obs.bench import read_history
from repro.obs.metrics import collecting, get_registry
from repro.obs.report import write_metrics_report


@pytest.fixture(autouse=True)
def _clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


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
    def spans(self, tmp_path_factory):
        """One collecting() scope over every layer, as a metrics report."""
        from repro.dlt.batch import solve_linear_batch
        from repro.mechanism.population import run_population
        from repro.runtime.session import run_resilient

        get_registry().reset()
        with collecting() as registry:
            run_population(3, 4, seed=7)
            run_population(3, 4, seed=7, use_batch=True)
            solve_linear_batch([[2.0, 2.0, 3.0], [3.0, 1.0, 2.0]], [[1.0, 0.5], [0.5, 0.2]])
            faults = [
                {"kind": "net_drop", "target": 2, "param": 2},
                {"kind": "crash_exec", "target": 3, "param": 0.5},
            ]
            run_resilient([1.0 + 0.1 * i for i in range(6)], [0.2] * 5, faults, seed=7)
            snapshot = registry.snapshot()
        get_registry().reset()
        path = tmp_path_factory.mktemp("spans") / "metrics.json"
        write_metrics_report(path, snapshot)
        return {"histograms": snapshot["histograms"], "path": path}

    @pytest.fixture
    def recorded(self, tmp_path, perfbench_output):
        """``perf record`` of one population and one serve_loopback run."""
        paths = []
        for workload in ("population", "serve_loopback"):
            path = tmp_path / f"{workload}.out"
            path.write_text(perfbench_output(workload, setup_s=0.5, throughput_rps=100.0))
            paths.append(str(path))
        bench, history = tmp_path / "BENCH_batch.json", tmp_path / "BENCH_history.jsonl"
        code = main(["perf", "record", *paths, "--bench-path", str(bench), "--history", str(history)])
        assert code == 0
        return {"bench": bench, "history": history, "paths": paths}

    def test_embedded_perf_snapshot_covers_all_layers(self, spans):
        spans = {name for name in spans["histograms"] if name.startswith("perf.")}
        # Phase I–IV of the scalar mechanism...
        for phase in ("phase_1", "phase_2", "phase_3", "phase_4"):
            assert f"perf.mechanism.{phase}" in spans
        assert "perf.mechanism.phase_3.simulate" in spans
        # ... the batched engine with its nested phases ...
        assert "perf.mech_batch.phase_1.solve.batch_linear" in spans
        # ... the solve kernels and the resilient runtime.
        assert "perf.solve.batch_linear" in spans
        assert {"perf.runtime.setup", "perf.runtime.epoch", "perf.runtime.settlement"} <= spans

    def test_perf_report_cli_renders_span_tree_and_percentiles(self, spans, capsys):
        assert main(["perf", "report", "--metrics", str(spans["path"])]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "mechanism" in out and "phase_1" in out and "runtime" in out
        assert "latency percentiles" in out
        assert "p95" in out and "p99" in out

    def test_sections_are_fingerprinted_and_validity_marked(self, recorded):
        record = json.loads(recorded["bench"].read_text())
        fingerprint = record["machine"]["fingerprint"]
        assert [run["detail"]["machine"]["fingerprint"] for run in record["runs"]] == [fingerprint] * 2
        assert [run["result"]["correct"] for run in record["runs"]] == [True, True]

    def test_history_row_was_appended(self, recorded):
        rows = read_history(recorded["history"])
        assert [row["workload"] for row in rows] == ["population", "serve_loopback"]
        assert all(row["schema"] == 2 and row["correct"] for row in rows)
        assert rows[0]["metrics"] == {"setup_s": 0.5, "throughput_rps": 100.0}

    def test_history_path_none_skips_the_append(self, tmp_path, perfbench_output, monkeypatch):
        # '-' reads the run from standard input; --history '' appends nothing.
        monkeypatch.setattr("sys.stdin", io.StringIO(perfbench_output(setup_s=0.5)))
        bench = tmp_path / "BENCH.json"
        assert main(["perf", "record", "-", "--bench-path", str(bench), "--history", ""]) == 0
        assert json.loads(bench.read_text())["runs"][0]["detail"]["workload"] == "population"
        assert list(tmp_path.iterdir()) == [bench]

    def test_malformed_file_exits_2_and_writes_nothing(self, recorded, tmp_path, capsys):
        bench_before = recorded["bench"].read_text()
        history_before = recorded["history"].read_text()
        bad = tmp_path / "bad.out"
        bad.write_text("Traceback (most recent call last):\n")
        argv = ["perf", "record", recorded["paths"][0], str(bad)]
        argv += ["--bench-path", str(recorded["bench"]), "--history", str(recorded["history"])]
        assert main(argv) == 2
        assert "nothing recorded" in capsys.readouterr().err
        assert recorded["bench"].read_text() == bench_before
        assert recorded["history"].read_text() == history_before


class TestPerfReportCLI:
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
        assert main(["perf", "report", "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mech" in out and "phase_1" in out


class TestPerfDiffCLI:
    @pytest.fixture
    def history(self, tmp_path, perfbench_output):
        """Record each ``(kwargs)`` run with ``perf record``, return the history path."""
        path = tmp_path / "h.jsonl"

        def record(*runs):
            for i, kwargs in enumerate(runs):
                out = tmp_path / f"run{i}.out"
                out.write_text(perfbench_output(**kwargs))
                argv = ["perf", "record", str(out), "--bench-path", str(tmp_path / "b.json")]
                assert main(argv + ["--history", str(path)]) == 0
            return str(path)

        return record

    def _run(self, p95=1.0, rps=100.0, **kwargs):
        return {"latency_p95_ms": p95, "throughput_rps": rps, **kwargs}

    def test_ok_when_newest_row_is_within_threshold(self, history, capsys):
        path = history(self._run(1.0), self._run(1.2), self._run(1.1))
        capsys.readouterr()
        assert main(["perf", "diff", "--history", path]) == 0
        out = capsys.readouterr().out
        assert "status=ok" in out and "population" in out

    def test_injected_slowdown_exits_1(self, history, capsys):
        # The acceptance check: a row whose lower-is-better latency
        # worsened past its BENCHMARK.json bound flips the gate.
        path = history(self._run(1.0), self._run(1.0), self._run(1.5))
        capsys.readouterr()
        assert main(["perf", "diff", "--history", path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION in: population.latency_p95_ms" in out

    def test_throughput_drop_exits_1(self, history, capsys):
        path = history(self._run(rps=100.0), self._run(rps=100.0), self._run(rps=60.0))
        capsys.readouterr()
        assert main(["perf", "diff", "--history", path]) == 1
        assert "REGRESSION in: population.throughput_rps" in capsys.readouterr().out
        # --threshold 1.0 (what CI passes) tolerates the drop.
        assert main(["perf", "diff", "--history", path, "--threshold", "1.0"]) == 0

    def test_empty_history_seeds_baseline_and_exits_0(self, tmp_path, capsys):
        # Fresh clone: no trajectory rows yet.  The gate must skip
        # cleanly (exit 0 with a notice) so the CI bench row it just
        # appended can seed the baseline, instead of failing the build.
        assert main(["perf", "diff", "--history", str(tmp_path / "h.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "baseline not yet seeded" in out and "gate skipped" in out

    def test_foreign_fingerprint_rows_seed_baseline_and_exit_0(self, history, capsys):
        # History copied from another machine: rows exist but none share
        # the newest row's fingerprint, so there is nothing to gate —
        # skip with the seeding notice rather than erroring.
        path = history(self._run(1.0, cpus=64), self._run(3.0))
        capsys.readouterr()
        assert main(["perf", "diff", "--history", path]) == 0
        assert "seed the baseline" in capsys.readouterr().out

    def test_single_row_has_no_baseline_and_passes(self, history, capsys):
        path = history(self._run(1.0))
        capsys.readouterr()
        assert main(["perf", "diff", "--history", path]) == 0
        assert "no-baseline" in capsys.readouterr().out

    def test_incorrect_run_is_never_baseline_nor_gated(self, history, capsys):
        # A wrong result's fast run must not become the baseline...
        path = history(self._run(0.1, correct=False), self._run(1.0), self._run(1.1))
        capsys.readouterr()
        assert main(["perf", "diff", "--history", path]) == 0
        assert "baseline_rows=1" in capsys.readouterr().out
        # ... and a wrong result's slow run is not gated.
        history(self._run(9.0, failed=2))
        capsys.readouterr()
        assert main(["perf", "diff", "--history", path]) == 0
        assert "skipped-incorrect" in capsys.readouterr().out

    def test_explicit_baseline_file(self, tmp_path, history, capsys, perfbench_output):
        path = history(self._run(3.0))
        baseline = tmp_path / "baseline.out"
        baseline.write_text(perfbench_output(**self._run(1.0)))
        argv = ["perf", "record", str(baseline), "--bench-path", str(tmp_path / "c.json")]
        assert main(argv + ["--history", str(tmp_path / "b.jsonl")]) == 0
        code = main(["perf", "diff", "--history", path, "--baseline", str(tmp_path / "b.jsonl")])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
