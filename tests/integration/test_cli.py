"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestSolve:
    def test_boundary(self, capsys):
        assert main(["solve", "--w", "2 2", "--z", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.6" in out and "makespan" in out

    def test_interior_root(self, capsys):
        assert main(["solve", "--w", "2 3 2.5", "--z", "0.5 0.3", "--root", "1"]) == 0
        out = capsys.readouterr().out
        assert "interior origination" in out

    def test_default_links(self, capsys):
        assert main(["solve", "--w", "2,3,4"]) == 0

    def test_comma_separated(self, capsys):
        assert main(["solve", "--w", "2,2", "--z", "1"]) == 0


class TestGantt:
    def test_renders(self, capsys):
        assert main(["gantt", "--w", "2 3 2.5", "--z", "0.5 0.3"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "P2" in out


class TestMechanism:
    def test_truthful(self, capsys):
        assert main(["mechanism", "--w", "2 3 2.5 4", "--z", "0.5 0.3 0.7"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out and "truthful" in out

    def test_deviant_shed(self, capsys):
        assert main([
            "mechanism", "--w", "2 3 2.5 4", "--z", "0.5 0.3 0.7",
            "--deviant", "2:shed:0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "overload" in out and "fined" in out

    def test_deviant_contradict_aborts(self, capsys):
        assert main([
            "mechanism", "--w", "2 3 2.5 4", "--z", "0.5 0.3 0.7",
            "--deviant", "2:contradict",
        ]) == 0
        out = capsys.readouterr().out
        assert "ABORTED" in out

    def test_deviant_overcharge_audited(self, capsys):
        assert main([
            "mechanism", "--w", "2 3 2.5 4", "--z", "0.5 0.3 0.7",
            "--deviant", "3:overcharge:2.0", "--audit-probability", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "audit: P3 fined" in out

    def test_unknown_deviant_kind(self):
        with pytest.raises(SystemExit):
            main([
                "mechanism", "--w", "2 3", "--z", "0.5",
                "--deviant", "1:bogus",
            ])


class TestSweep:
    def test_sweep_reports_strategyproof(self, capsys):
        assert main(["sweep", "--w", "2 3 2.5", "--z", "0.5 0.3", "--agent", "2"]) == 0
        out = capsys.readouterr().out
        assert "strategyproof: True" in out
        assert "<-- truth" in out


class TestExperiment:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "F1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])

    def test_list_enumerates_registry(self, capsys):
        from repro.experiments import ALL_EXPERIMENTS

        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ALL_EXPERIMENTS:
            assert exp_id in out

    def test_missing_id_without_list(self):
        with pytest.raises(SystemExit):
            main(["experiment"])


class TestExperiments:
    def test_serial_run(self, capsys):
        assert main(["experiments", "F1", "F3", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "=== F1" in out and "=== F3" in out and "[PASS]" in out
        assert "2 experiment runs, 0 failed" in out

    def test_parallel_matches_serial(self, capsys):
        assert main(["experiments", "F1", "F3"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiments", "F1", "F3", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Identical tables modulo wall-clock footer.
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("(total")]
        assert strip(serial) == strip(parallel)

    def test_replications(self, capsys):
        assert main(["experiments", "T2.1", "--replications", "2"]) == 0
        out = capsys.readouterr().out
        assert "T2.1#0" in out and "T2.1#1" in out

    def test_replications_require_single_id(self):
        with pytest.raises(SystemExit):
            main(["experiments", "F1", "F3", "--replications", "2"])

    def test_batch_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiments", "F1", "--batch"])
        assert "unrecognized arguments: --batch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiments", "F1", "--jobs", "-3"],
            ["run", "--count", "1", "--jobs", "-2"],
            ["faults", "run", "--scenario", "shed", "--jobs", "0"],
            ["faults", "fuzz", "--count", "1", "--jobs", "0"],
        ],
    )
    def test_jobs_below_one_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--jobs: must be >= 1" in capsys.readouterr().err

    def test_unknown_id(self):
        with pytest.raises(SystemExit):
            main(["experiments", "nope"])


class TestBenchEntryPoint:
    """``perf record`` is the one benchmark entry point."""

    @pytest.mark.parametrize(
        "argv, unrecognized",
        [
            (["experiments", "--bench"], "--bench"),
            (["experiments", "F1", "--bench-path", "x.json"], "--bench-path"),
            (["experiments", "F1", "--history", "h.jsonl"], "--history"),
            (["perf", "record", "run.out", "--jobs", "2"], "--jobs 2"),
        ],
        ids=["experiments-bench", "bench-path", "history", "perf-record-jobs"],
    )
    def test_removed_flags_are_errors(self, argv, unrecognized, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {unrecognized}" in capsys.readouterr().err

    def test_serve_bench_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
    def test_perf_diff_threshold_must_be_finite_and_non_negative(self, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "diff", "--history", str(tmp_path / "h.jsonl"), "--threshold", value])
        assert excinfo.value.code == 2
        assert "--threshold: must be finite and >= 0" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_empty_floats_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--w", " "])

    def test_serve_start_defaults_are_the_default_flush_policy(self):
        from repro.serve.dispatcher import FlushPolicy

        args = build_parser().parse_args(["serve", "start"])
        policy = FlushPolicy(max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1e3)
        assert policy == FlushPolicy()
