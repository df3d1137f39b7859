"""Experiment T5.2 — Theorem 5.2 (selfish-and-annoying compliance).

Without the solution bonus ``S``, a data-corrupting or duplicating agent
is *indifferent* — its utility is unchanged by the vandalism.  With the
eq. 4.13 bonus, the same behaviour strictly lowers its expected utility
by ``s * (probability mass it destroyed)``.  The experiment measures both
columns, plus a Monte Carlo cross-check of the closed-form detection
probability.
"""

from __future__ import annotations

import numpy as np

from repro.agents.annoying import DataCorruptingAgent, DuplicatingAgent
from repro.agents.strategies import TruthfulAgent
from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.workloads import WORKLOADS, Workload
from repro.mechanism.dls_lbl import DLSLBLMechanism
from repro.mechanism.solution_bonus import (
    SolutionBonusConfig,
    expected_solution_utility,
    probability_solution_found,
    simulate_solution_rounds,
)

__all__ = ["run_thm52_annoying"]


def _forwarded(outcome) -> np.ndarray:
    """Load units forwarded *through* each processor to its successors."""
    received = outcome.sim_result.received
    computed = outcome.computed
    return np.maximum(received - computed, 0.0)


def run_thm52_annoying(
    workload: Workload | None = None,
    *,
    m: int = 5,
    s: float = 0.5,
    seed: int = 202,
) -> ExperimentResult:
    workload = workload or WORKLOADS["small-uniform"]
    network = workload.one(m)
    config = SolutionBonusConfig(s=s)
    rng = np.random.default_rng(seed)
    mid = max(1, m // 2)

    table = Table(
        title="Theorem 5.2 — the solution bonus deters annoying behaviour",
        columns=[
            "agent",
            "P(found)",
            "MC P(found)",
            "E[U] without S",
            "E[U] with S",
            "loss vs honest (with S)",
        ],
        notes=f"solution bonus s = {s}; honest P(found) = 1",
    )

    def expected_utilities(agents):
        mech = DLSLBLMechanism(
            network.z, float(network.w[0]), agents, rng=np.random.default_rng(seed)
        )
        outcome = mech.run()
        forwarded = _forwarded(outcome)
        base = {i: outcome.utility(i) for i in range(1, m + 1)}
        with_s = expected_solution_utility(base, agents, forwarded, config)
        p = probability_solution_found(agents, forwarded)
        # The vectorized estimator draws the same positions and applies
        # the same predicates as the round-by-round loop.
        mc = simulate_solution_rounds(
            agents, forwarded, config, rng, n_rounds=20000, vectorized=True
        )
        return base, with_s, p, mc

    honest_agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(network.w[1:], start=1)]
    honest_base, honest_with_s, honest_p, _ = expected_utilities(honest_agents)

    all_ok = abs(honest_p - 1.0) < 1e-12
    table.add_row("truthful", honest_p, 1.0, honest_base[mid], honest_with_s[mid], 0.0)

    for label, agent in (
        ("corrupt 50%", DataCorruptingAgent(mid, float(network.w[mid]), corrupt_fraction=0.5)),
        ("duplicate 50%", DuplicatingAgent(mid, float(network.w[mid]), duplicate_fraction=0.5)),
    ):
        agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(network.w[1:], start=1)]
        agents[mid - 1] = agent
        base, with_s, p, mc = expected_utilities(agents)
        loss = honest_with_s[mid] - with_s[mid]
        # Without S: vandalism leaves the vandal's own utility unchanged
        # (selfish-and-annoying indifference); with S it strictly loses.
        indifferent = abs(base[mid] - honest_base[mid]) < 1e-9
        deterred = loss > 1e-9
        mc_ok = abs(mc - p) < 0.02
        all_ok &= indifferent and deterred and mc_ok
        table.add_row(label, p, mc, base[mid], with_s[mid], loss)

    return ExperimentResult(
        experiment_id="T5.2",
        description="Theorem 5.2 — selfish-and-annoying agents and the solution bonus",
        tables=[table],
        passed=bool(all_ok),
        summary=(
            "vandalism is utility-neutral without S and strictly costly with S"
            if all_ok
            else "solution-bonus deterrence failed"
        ),
    )
