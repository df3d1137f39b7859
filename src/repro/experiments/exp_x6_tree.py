"""Experiment X6 (extension) — the tree mechanism baseline (DLS-T, [9]).

Validates the tree member of the authors' mechanism family on random
tree shapes: honest runs reproduce the tree DLT schedule, truthful
bidding dominates at every node (bid sweeps), slow execution loses, and
voluntary participation holds.
"""

from __future__ import annotations

import numpy as np

from repro.agents.strategies import MisbiddingAgent, SlowExecutionAgent, TruthfulAgent
from repro.dlt.tree import solve_tree
from repro.experiments.harness import ExperimentResult, Table
from repro.mechanism.tree_mechanism import TreeMechanism
from repro.network.generators import random_tree_network
from repro.network.topology import TreeNetwork

__all__ = ["run_x6_tree"]


def _run(tree: TreeNetwork, rates, overrides=None):
    overrides = overrides or {}
    agents = [
        overrides.get(i, TruthfulAgent(i, rates[i])) for i in range(1, tree.size)
    ]
    return TreeMechanism(tree, agents).run()


def run_x6_tree(
    *,
    sizes: tuple[int, ...] = (3, 6, 10),
    instances: int = 3,
    factors: tuple[float, ...] = (0.4, 0.7, 1.0, 1.4, 2.5),
    slowdown: float = 1.5,
    seed: int = 808,
) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    table = Table(
        title="X6 — tree mechanism: schedule agreement and strategyproofness",
        columns=[
            "nodes",
            "instances",
            "max |Δ alpha| vs solver",
            "min utility",
            "nodes swept",
            "max advantage of lying",
            "violations",
        ],
    )
    all_ok = True
    for size in sizes:
        worst = -np.inf
        violations = 0
        swept = 0
        max_d_alpha = 0.0
        min_utility = np.inf
        for _ in range(instances):
            tree = random_tree_network(size, rng)
            rates = tree.preorder().w.tolist()
            base = _run(tree, rates)
            sched = solve_tree(tree)
            max_d_alpha = max(max_d_alpha, float(np.abs(base.assigned - sched.alpha).max()))
            utilities = [base.utility(i) for i in range(1, size)]
            min_utility = min(min_utility, min(utilities))
            for i in range(1, size):
                swept += 1
                truthful_u = base.utility(i)
                for factor in factors:
                    dev = _run(tree, rates, {i: MisbiddingAgent(i, rates[i], bid_factor=factor)})
                    adv = dev.utility(i) - truthful_u
                    worst = max(worst, adv)
                    if adv > 1e-9 * max(1.0, abs(truthful_u)):
                        violations += 1
                slow = _run(tree, rates, {i: SlowExecutionAgent(i, rates[i], slowdown=slowdown)})
                if slow.utility(i) > truthful_u + 1e-9:
                    violations += 1
        all_ok &= violations == 0 and max_d_alpha < 1e-9 and min_utility >= -1e-9
        table.add_row(size, instances, max_d_alpha, float(min_utility), swept, worst, violations)
    return ExperimentResult(
        experiment_id="X6",
        description="X6 — tree mechanism baseline (the [9] family member)",
        tables=[table],
        passed=all_ok,
        summary=(
            "tree payments are strategyproof with non-negative utilities on random trees"
            if all_ok
            else "tree mechanism property violated"
        ),
    )
