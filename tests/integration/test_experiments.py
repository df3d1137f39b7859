"""Integration tests: every registered experiment runs and passes.

The slow experiments (T5.3 full sweep, X3 Monte Carlo) are exercised
with reduced parameters here; the benchmarks run them at full scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    WORKLOADS,
    Workload,
    gantt_chart_for,
    run_fig1_topology,
    run_fig2_gantt,
    run_fig3_reduction,
    run_thm21_optimality,
    run_thm51_deviation,
    run_thm52_annoying,
    run_thm53_strategyproof,
    run_thm54_participation,
    run_x1_scaling,
    run_x2_topology,
    run_x3_audit,
    topology_makespans,
    utility_curve,
)

TINY = Workload("tiny", "uniform", sizes=(2, 4), seed=99, instances_per_size=2)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "F1", "F2", "F3", "T2.1", "T5.1", "T5.2", "T5.3", "T5.4",
            "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11", "X12", "X13",
            "A1", "A2", "A3", "P1", "P2", "P3",
        }


class TestFigures:
    def test_fig1(self):
        result = run_fig1_topology(TINY)
        assert result.passed
        assert result.tables[0].rows

    def test_fig2(self):
        result = run_fig2_gantt(TINY)
        assert result.passed
        assert len(result.tables) == 2

    def test_fig2_chart_renders(self):
        chart = gantt_chart_for(3, workload=TINY)
        assert "P0" in chart and "P3" in chart

    def test_fig3(self):
        result = run_fig3_reduction(TINY)
        assert result.passed


class TestTheorems:
    def test_thm21(self):
        result = run_thm21_optimality(TINY, n_trials=50)
        assert result.passed

    def test_thm51(self):
        result = run_thm51_deviation(TINY, m=4)
        assert result.passed
        # Six deviation rows, one per Lemma 5.1 case.
        assert len(result.tables[0].rows) == 6

    def test_thm52(self):
        result = run_thm52_annoying(TINY, m=4)
        assert result.passed

    def test_thm53_reduced(self):
        result = run_thm53_strategyproof(
            [TINY], factors=np.array([0.5, 1.0, 2.0]), slowdowns=(1.5,)
        )
        assert result.passed

    def test_thm53_utility_curve_table(self):
        table = utility_curve(m=3, agent_index=1, workload=TINY,
                              factors=np.array([0.5, 1.0, 2.0]))
        assert len(table.rows) == 3
        # The truthful row has delta 0; others are <= 0.
        deltas = [row[3] for row in table.rows]
        assert max(deltas) <= 1e-9

    def test_thm54(self):
        result = run_thm54_participation([TINY])
        assert result.passed


class TestExtensions:
    def test_x1(self):
        result = run_x1_scaling(TINY)
        assert result.passed

    def test_x2(self):
        result = run_x2_topology(TINY)
        assert result.passed

    def test_x2_makespans_keys(self, five_proc_network):
        spans = topology_makespans(five_proc_network)
        assert {"linear-boundary", "linear-interior", "linear-best-root", "star", "bus", "tree(random)"} == set(spans)
        assert all(v > 0 for v in spans.values())

    def test_x3_reduced(self):
        result = run_x3_audit(TINY, m=3, deltas=(1.0,), qs=(0.5, 1.0), n_runs=50)
        assert result.passed

    def test_x4_reduced(self):
        from repro.experiments import run_x4_interior

        result = run_x4_interior(TINY, factors=(0.5, 1.0, 2.0))
        assert result.passed
        assert len(result.tables) == 3

    def test_x7(self):
        from repro.experiments import run_x7_position_rents

        result = run_x7_position_rents(m=5, heterogeneous_instances=2)
        assert result.passed

    def test_x8_reduced(self):
        from repro.experiments import run_x8_collusion

        result = run_x8_collusion(TINY)
        assert result.passed

    def test_a1(self):
        from repro.experiments import run_a1_ablation

        result = run_a1_ablation(TINY, m=4)
        assert result.passed

    def test_a2(self):
        from repro.experiments import run_a2_bonus_rule

        result = run_a2_bonus_rule(TINY, m=4, factors=(0.5, 1.0, 2.0))
        assert result.passed

    def test_p2_reduced(self):
        from repro.experiments import run_p2_overhead

        result = run_p2_overhead(sizes=(2, 5, 10))
        assert result.passed

    def test_p2_counts_are_its_table_and_keep_earlier_counts(self):
        # Each size is measured as a collecting() delta: the task's delta
        # is the sum of the table's columns, and counts already in the
        # enclosing scope survive the experiment.
        from repro.experiments.runner import run_experiments
        from repro.obs.metrics import collecting

        with collecting(merge=False) as registry:
            registry.inc("crypto.signatures_created", 5.0)
            registry.inc("crypto.verifications_performed", 7.0)
            (run,) = run_experiments(["P2"])
        rows = run.result.tables[0].rows
        signatures, verifications = sum(r[1] for r in rows), sum(r[3] for r in rows)
        assert (signatures, verifications) == (532, 1126)
        counters = run.metrics["counters"]
        assert counters["crypto.signatures_created"] == signatures
        assert counters["crypto.verifications_performed"] == verifications
        assert registry.counter("crypto.signatures_created") == 5 + signatures
        assert registry.counter("crypto.verifications_performed") == 7 + verifications

    def test_a3_reduced(self):
        from repro.experiments import run_a3_assumptions

        result = run_a3_assumptions(TINY, sizes=(4,))
        assert result.passed
        assert len(result.tables) == 3

    def test_x9_reduced(self):
        from repro.experiments import run_x9_regimes

        result = run_x9_regimes(m=4, instances=2)
        assert result.passed


class TestResultShape:
    def test_results_format_cleanly(self):
        result = run_fig1_topology(TINY)
        text = result.format()
        assert "F1" in text and "PASS" in text
