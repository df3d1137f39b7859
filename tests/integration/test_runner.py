"""Integration tests for the parallel experiment runner.

The load-bearing property: parallelism changes wall-clock only, never
results.  The same run with ``jobs=1`` and ``jobs=4`` must produce
byte-identical result tables, because every task's seed derives from the
task identity, not from worker scheduling.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS, Workload
from repro.experiments.runner import (
    format_runs,
    run_experiments,
    run_replications,
    task_seed,
)

FAST_IDS = ["F1", "F3", "T2.1"]
TINY = Workload("tiny", "uniform", sizes=(2, 4), seed=99, instances_per_size=2)


class TestTaskSeeds:
    def test_stable_across_calls_and_sessions(self):
        # Pinned: the derivation is part of the reproducibility contract.
        assert task_seed("X1") == 2020640786
        assert task_seed("X1", 1) == 3276413873

    def test_distinct_per_task(self):
        seeds = {task_seed(exp_id) for exp_id in ALL_EXPERIMENTS}
        assert len(seeds) == len(ALL_EXPERIMENTS)

    def test_base_seed_shifts_all(self):
        assert task_seed("T2.1", 0) != task_seed("T2.1", 7)


class TestParallelDeterminism:
    def test_jobs_1_and_4_are_byte_identical(self):
        serial = run_experiments(FAST_IDS, jobs=1, base_seed=0)
        parallel = run_experiments(FAST_IDS, jobs=4, base_seed=0)
        assert [r.exp_id for r in serial] == FAST_IDS
        assert [r.exp_id for r in parallel] == FAST_IDS
        for s, p in zip(serial, parallel):
            assert s.seed == p.seed
            assert s.result.format() == p.result.format()
        assert format_runs(serial) == format_runs(parallel)

    def test_replications_are_byte_identical_across_jobs(self):
        serial = run_replications("T2.1", 3, jobs=1, workload=TINY, n_trials=20)
        parallel = run_replications("T2.1", 3, jobs=3, workload=TINY, n_trials=20)
        assert format_runs(serial) == format_runs(parallel)
        assert [r.replication for r in parallel] == [0, 1, 2]

    def test_replications_differ_by_seed(self):
        runs = run_replications("T2.1", 2, workload=TINY, n_trials=20)
        assert runs[0].seed != runs[1].seed
        # Different perturbation draws → different margin columns.
        assert runs[0].result.format() != runs[1].result.format()


class TestRunnerApi:
    def test_default_runs_match_registry_defaults(self):
        # Without a base seed the experiments keep their own pinned seeds,
        # so the runner reproduces the `experiment` command exactly.
        [run] = run_experiments(["T2.1"], experiment_kwargs={"T2.1": {"workload": TINY, "n_trials": 20}})
        direct = ALL_EXPERIMENTS["T2.1"](workload=TINY, n_trials=20)
        assert run.result.format() == direct.format()
        assert run.seed is None

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiments(["nope"])
        with pytest.raises(ValueError, match="unknown experiment"):
            run_replications("nope", 2)

    def test_replications_refuse_identical_runs(self):
        # Without a seed every replication would be the same run.
        with pytest.raises(ValueError, match="takes no seed"):
            run_replications("F1", 2)
        with pytest.raises(ValueError, match=">= 1"):
            run_replications("T2.1", 0)

    def test_durations_recorded(self):
        [run] = run_experiments(["F1"])
        assert run.duration > 0
        assert run.result.passed


class TestWorkerCacheStats:
    def test_pooled_run_ships_task_cache_counters(self):
        # Each task's solve-cache counters travel home inside its metrics
        # snapshot, so pool workers' cache traffic is not lost in pickling.
        [run] = run_experiments(["X2"], jobs=2)
        assert run.metrics["counters"].get("cache.solve_linear.task_hits", 0) > 0

    def test_call_experiment_records_cache_counters(self, monkeypatch):
        import numpy as np

        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.harness import ExperimentResult
        from repro.experiments.runner import _call_experiment

        def cache_user():
            from repro.dlt.batch import solve_linear_cached
            from repro.network.generators import random_linear_network

            rng = np.random.default_rng(11)
            nets = [random_linear_network(3, rng) for _ in range(4)]
            for net in nets + nets:
                solve_linear_cached(net)
            return ExperimentResult(
                experiment_id="CACHE-PROBE",
                description="",
                tables=[],
                passed=True,
                summary="",
            )

        monkeypatch.setitem(ALL_EXPERIMENTS, "CACHE-PROBE", cache_user)
        result, _duration, snapshot = _call_experiment("CACHE-PROBE", None, {})
        assert result.passed
        counters = snapshot["counters"]
        # The warm replay hits 4 times; misses depend on what earlier
        # tests already cached in this process, so only a lower bound.
        assert counters.get("cache.solve_linear.task_hits", 0) >= 4
