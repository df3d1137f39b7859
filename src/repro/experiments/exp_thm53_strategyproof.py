"""Experiment T5.3 — Theorem 5.3 (strategyproofness).

The core evaluation of the paper: for every agent position, across
network regimes, sweep the reported bid over a wide factor grid (and the
execution speed over slowdowns) and confirm the utility is maximized by
truthful bidding at full capacity.  The per-bid utility curve of a
representative agent is the reproduction's version of the classic
"utility vs bid" figure from the authors' companion papers.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.workloads import WORKLOADS, Workload
from repro.mechanism.properties import sweep_bids, sweep_bids_batch

__all__ = ["run_thm53_strategyproof", "utility_curve"]

#: Bid factors used in the sweeps (under- and over-bidding up to 5x).
DEFAULT_FACTORS = np.concatenate((np.linspace(0.2, 1.0, 9), np.linspace(1.25, 5.0, 8)))


def utility_curve(
    m: int = 4,
    agent_index: int = 2,
    *,
    workload: Workload | None = None,
    factors: np.ndarray | None = None,
) -> Table:
    """The utility-vs-bid curve for one agent on one instance."""
    workload = workload or WORKLOADS["small-uniform"]
    network = workload.one(m)
    factors = DEFAULT_FACTORS if factors is None else factors
    report = sweep_bids(
        network.z, float(network.w[0]), network.w[1:], agent_index, factors=factors
    )
    table = Table(
        title=f"Utility of P{agent_index} vs bid (true rate {report.true_rate:.4g})",
        columns=["bid factor", "bid", "utility", "vs truthful"],
    )
    for factor, bid, utility in zip(factors, report.bids, report.utilities):
        table.add_row(float(factor), float(bid), float(utility), float(utility - report.truthful_utility))
    return table


def run_thm53_strategyproof(
    workloads: list[Workload] | None = None,
    *,
    factors: np.ndarray | None = None,
    slowdowns: tuple[float, ...] = (1.25, 2.0),
) -> ExperimentResult:
    workloads = workloads or [
        WORKLOADS["small-uniform"],
        WORKLOADS["heterogeneous"],
        WORKLOADS["slow-links"],
    ]
    factors = DEFAULT_FACTORS if factors is None else factors
    summary_table = Table(
        title="Theorem 5.3 — truthful bid dominance across instances",
        columns=["workload", "instances", "agents swept", "max advantage of lying", "violations"],
        notes="advantage = best deviant utility - truthful utility; <= 0 everywhere means strategyproof",
    )
    slow_table = Table(
        title="Slow execution (w~ > t) never profits",
        columns=["workload", "slowdown", "max advantage", "violations"],
    )
    # Bid deviations and slowdowns are protocol-compliant, so eq. 4.4 is
    # evaluated directly through the vectorized kernels — differential-
    # tested against the scalar mechanism runs to 1e-9.
    def slow_utility(z, root, true, agent_index, rate):
        report = sweep_bids_batch(
            z, root, true, agent_index, factors=np.array([1.0]), execution_rate=rate
        )
        return float(report.utilities[0])

    all_ok = True
    for workload in workloads:
        worst = -np.inf
        violations = 0
        agents_swept = 0
        instances = 0
        slow_worst = {s: -np.inf for s in slowdowns}
        slow_violations = {s: 0 for s in slowdowns}
        for m, network in workload.networks():
            instances += 1
            z = network.z
            root = float(network.w[0])
            true = network.w[1:]
            for agent_index in range(1, m + 1):
                agents_swept += 1
                report = sweep_bids_batch(z, root, true, agent_index, factors=factors)
                worst = max(worst, report.advantage_of_lying)
                if not report.truthful_is_optimal:
                    violations += 1
                truthful = report.truthful_utility
                for s in slowdowns:
                    slow_u = slow_utility(
                        z, root, true, agent_index, s * float(true[agent_index - 1])
                    )
                    adv = slow_u - truthful
                    slow_worst[s] = max(slow_worst[s], adv)
                    if adv > 1e-9 * max(1.0, abs(truthful)):
                        slow_violations[s] += 1
        summary_table.add_row(workload.name, instances, agents_swept, worst, violations)
        all_ok &= violations == 0
        for s in slowdowns:
            slow_table.add_row(workload.name, s, slow_worst[s], slow_violations[s])
            all_ok &= slow_violations[s] == 0
    return ExperimentResult(
        experiment_id="T5.3",
        description="Theorem 5.3 — strategyproofness (bid sweeps + slow execution)",
        tables=[summary_table, slow_table],
        passed=all_ok,
        summary=(
            "no agent on any instance gains by misreporting or underperforming"
            if all_ok
            else "strategyproofness violated on at least one instance"
        ),
    )
