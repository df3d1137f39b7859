"""Experiment harness regenerating every figure and theorem validation.

The paper has no numeric tables; its evaluation is Figures 1–3 plus
Theorems 2.1 and 5.1–5.4.  Each ``exp_*`` module reproduces one of them
(see the experiment index in ``DESIGN.md`` and the measured results in
``EXPERIMENTS.md``); the ``benchmarks/`` tree wraps each in a
pytest-benchmark target that prints the same rows.
"""

from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.runner import (
    ExperimentRun,
    format_runs,
    run_experiments,
    run_replications,
    task_seed,
)
from repro.experiments.workloads import WORKLOADS, Workload
from repro.experiments.exp_fig1_topology import run_fig1_topology
from repro.experiments.exp_fig2_gantt import gantt_chart_for, run_fig2_gantt
from repro.experiments.exp_fig3_reduction import run_fig3_reduction
from repro.experiments.exp_thm21_optimality import run_thm21_optimality
from repro.experiments.exp_thm51_deviation import run_single_deviation, run_thm51_deviation
from repro.experiments.exp_thm52_annoying import run_thm52_annoying
from repro.experiments.exp_thm53_strategyproof import run_thm53_strategyproof, utility_curve
from repro.experiments.exp_thm54_participation import run_thm54_participation
from repro.experiments.exp_x1_scaling import run_x1_scaling
from repro.experiments.exp_x2_topology import run_x2_topology, topology_makespans
from repro.experiments.exp_x3_audit import run_x3_audit
from repro.experiments.exp_x4_interior import run_x4_interior
from repro.experiments.exp_x5_star import run_x5_star
from repro.experiments.exp_x6_tree import run_x6_tree
from repro.experiments.exp_x7_position_rents import run_x7_position_rents
from repro.experiments.exp_x8_collusion import run_x8_collusion
from repro.experiments.exp_x9_regimes import run_x9_regimes
from repro.experiments.exp_x10_multiround import run_x10_multiround
from repro.experiments.exp_x11_faults import run_x11_faults
from repro.experiments.exp_x12_resilience import run_x12_resilience
from repro.experiments.exp_x13_adversary import run_x13_adversary
from repro.experiments.exp_a1_ablation import run_a1_ablation
from repro.experiments.exp_a2_bonus_rule import marginal_bonus_chain, run_a2_bonus_rule
from repro.experiments.exp_a3_assumptions import run_a3_assumptions
from repro.experiments.exp_p1_performance import run_p1_performance
from repro.experiments.exp_p2_overhead import run_p2_overhead
from repro.experiments.exp_p3_batch import run_p3_batch

#: Registry of all experiments keyed by experiment id (DESIGN.md index).
ALL_EXPERIMENTS = {
    "F1": run_fig1_topology,
    "F2": run_fig2_gantt,
    "F3": run_fig3_reduction,
    "T2.1": run_thm21_optimality,
    "T5.1": run_thm51_deviation,
    "T5.2": run_thm52_annoying,
    "T5.3": run_thm53_strategyproof,
    "T5.4": run_thm54_participation,
    "X1": run_x1_scaling,
    "X2": run_x2_topology,
    "X3": run_x3_audit,
    "X4": run_x4_interior,
    "X5": run_x5_star,
    "X6": run_x6_tree,
    "X7": run_x7_position_rents,
    "X8": run_x8_collusion,
    "X9": run_x9_regimes,
    "X10": run_x10_multiround,
    "X11": run_x11_faults,
    "X12": run_x12_resilience,
    "X13": run_x13_adversary,
    "A1": run_a1_ablation,
    "A2": run_a2_bonus_rule,
    "A3": run_a3_assumptions,
    "P1": run_p1_performance,
    "P2": run_p2_overhead,
    "P3": run_p3_batch,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "ExperimentRun",
    "Table",
    "WORKLOADS",
    "Workload",
    "format_runs",
    "run_experiments",
    "run_replications",
    "task_seed",
    "gantt_chart_for",
    "run_fig1_topology",
    "run_fig2_gantt",
    "run_fig3_reduction",
    "run_p1_performance",
    "run_single_deviation",
    "run_thm21_optimality",
    "run_thm51_deviation",
    "run_thm52_annoying",
    "run_thm53_strategyproof",
    "run_thm54_participation",
    "run_x1_scaling",
    "run_x2_topology",
    "run_x3_audit",
    "run_x4_interior",
    "run_x5_star",
    "run_x6_tree",
    "run_x7_position_rents",
    "run_x8_collusion",
    "run_x9_regimes",
    "run_x10_multiround",
    "run_x11_faults",
    "run_x12_resilience",
    "run_x13_adversary",
    "run_a1_ablation",
    "run_a2_bonus_rule",
    "run_a3_assumptions",
    "run_p2_overhead",
    "run_p3_batch",
    "marginal_bonus_chain",
    "topology_makespans",
    "utility_curve",
]
