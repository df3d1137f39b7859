"""Experiment X5 (extension) — the star/bus mechanism baseline.

The authors' prior mechanisms cover bus [14] and tree [9] networks; X5
runs the star/bus member of that family (marginal-contribution bonus,
see :mod:`repro.mechanism.star_mechanism`) and validates the same
properties as DLS-LBL — strategyproofness under bid sweeps and slow
execution, voluntary participation — plus the cross-architecture
comparison of the informational rent: stars pay less rent per unit of
compute than chains because removing one child hurts the schedule less
than breaking a relay chain.
"""

from __future__ import annotations

import numpy as np

from repro.agents.strategies import MisbiddingAgent, SlowExecutionAgent
from repro.experiments.harness import ExperimentResult, Table
from repro.mechanism.properties import run_truthful
from repro.network.generators import random_star_network

__all__ = ["run_x5_star"]


def _batch_instance(z, root_rate, true, factors, slowdown):
    """All of one instance's star runs in a single batched engine pass.

    Row 0 is the truthful base; then one row per ``(agent, factor)``
    misbid and one per slow agent — the deviant hooks themselves supply
    the bid/rate floats so every row is bitwise the
    :class:`~repro.mechanism.star_mechanism.StarMechanism` run of that
    deviant among truthful agents (the probes are compliant, and with
    ``q = 1`` every audit passes).  Returns the outcome plus the
    ``(agent, factor) -> row`` and ``agent -> row`` maps.
    """
    from repro.mechanism.batch_run import run_star_batch

    n = len(true)
    n_rows = 1 + n * len(factors) + n
    w = np.empty((n_rows, n + 1))
    w[:, 0] = float(root_rate)
    w[:, 1:] = true
    z_rows = np.tile(np.asarray(z, dtype=np.float64), (n_rows, 1))
    bids = w[:, 1:].copy()
    rates = w[:, 1:].copy()
    misbid_rows: dict[tuple[int, float], int] = {}
    slow_rows: dict[int, int] = {}
    row = 1
    for i in range(1, n + 1):
        for factor in factors:
            bids[row, i - 1] = MisbiddingAgent(i, true[i - 1], bid_factor=factor).choose_bid()
            misbid_rows[(i, factor)] = row
            row += 1
    for i in range(1, n + 1):
        agent = SlowExecutionAgent(i, true[i - 1], slowdown=slowdown)
        bids[row, i - 1] = agent.choose_bid()
        rates[row, i - 1] = agent.choose_execution_rate()
        slow_rows[i] = row
        row += 1
    outcome = run_star_batch(
        w,
        z_rows,
        bids=bids,
        execution_rates=rates,
        audit_probability=1.0,
        audit_draws=np.zeros((n_rows, n)),
    )
    return outcome, misbid_rows, slow_rows


def run_x5_star(
    *,
    sizes: tuple[int, ...] = (2, 4, 8),
    instances: int = 4,
    factors: tuple[float, ...] = (0.4, 0.7, 1.0, 1.4, 2.5),
    slowdown: float = 1.5,
    seed: int = 707,
) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    sp_table = Table(
        title="X5 — star mechanism: truthful bids dominate",
        columns=["children", "instances", "agents swept", "max advantage of lying", "max slow advantage", "violations"],
    )
    rent_table = Table(
        title="X5 — informational rent: star vs chain (same resources)",
        columns=["n", "star rent / compute cost", "chain rent / compute cost"],
        notes="rent = total bonus paid; chains pay more because each relay position is pivotal",
    )
    all_ok = True
    for n in sizes:
        worst_bid = -np.inf
        worst_slow = -np.inf
        violations = 0
        swept = 0
        star_rent_ratio = []
        chain_rent_ratio = []
        for _ in range(instances):
            star = random_star_network(n, rng)
            z = star.z
            root_rate = float(star.w[0])
            true = [float(t) for t in star.w[1:]]
            sb, misbid_rows, slow_rows = _batch_instance(z, root_rate, true, factors, slowdown)
            all_ok &= not sb.aborted[0]
            all_ok &= all(sb.utility(0, i) >= -1e-9 for i in range(1, n + 1))
            for i in range(1, n + 1):
                swept += 1
                truthful_u = sb.utility(0, i)
                for factor in factors:
                    adv = sb.utility(misbid_rows[(i, factor)], i) - truthful_u
                    worst_bid = max(worst_bid, adv)
                    if adv > 1e-9 * max(1.0, abs(truthful_u)):
                        violations += 1
                slow_u = sb.utility(slow_rows[i], i)
                worst_slow = max(worst_slow, slow_u - truthful_u)
                if slow_u > truthful_u + 1e-9:
                    violations += 1
            star_cost = float(np.sum(sb.assigned[0, 1:] * sb.actual_rates[0, 1:]))
            star_rent = float(sum(float(c) for c in sb.correct_q[0]) - star_cost)
            star_rent_ratio.append(star_rent / star_cost)
            # Same resources arranged as a chain under DLS-LBL.
            chain = run_truthful(z, root_rate, true)
            chain_cost = float(np.sum(chain.assigned[1:] * chain.actual_rates[1:]))
            chain_rent = float(
                sum(r.payment_correct for r in chain.reports.values()) - chain_cost
            )
            chain_rent_ratio.append(chain_rent / chain_cost)
        sp_table.add_row(n, instances, swept, worst_bid, worst_slow, violations)
        rent_table.add_row(n, float(np.mean(star_rent_ratio)), float(np.mean(chain_rent_ratio)))
        all_ok &= violations == 0
    return ExperimentResult(
        experiment_id="X5",
        description="X5 — star/bus mechanism baseline (the [14]/[9] family)",
        tables=[sp_table, rent_table],
        passed=all_ok,
        summary=(
            "the marginal-contribution star mechanism is strategyproof with non-negative rents"
            if all_ok
            else "star mechanism property violated"
        ),
    )
