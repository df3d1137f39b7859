"""Experiment X8 (extension) — coalition stability.

DLS-LBL is strategyproof for *individuals*; the detection of load
shedding, however, relies on the victim reporting.  A shedder and a
silent victim form a coalition: the shedder pockets the compensation for
work it dumped, the victim is exactly recompensed (utility unchanged),
so the coalition's joint utility strictly exceeds joint truthfulness —
the mechanism is **not** group-strategyproof.

The paper's counterweight is the reporting reward ``F``: by betraying
the coalition the victim earns ``F``, and since ``F`` exceeds *any*
profit attainable by cheating, it exceeds the coalition's entire surplus
— no side payment the shedder can fund makes silence worth more than
betrayal.  The coalition is therefore never self-enforcing.  This
experiment measures all three quantities (coalition surplus, betrayal
payoff, maximum fundable side payment) across instances.
"""

from __future__ import annotations

import numpy as np

from repro.agents.strategies import LoadSheddingAgent, SilentVictimAgent, TruthfulAgent
from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.workloads import WORKLOADS, Workload
from repro.mechanism.properties import run_truthful
from repro.mechanism.rows import build_mechanism

__all__ = ["run_x8_collusion"]


def _run(network, overrides, seed=0):
    agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(network.w[1:], start=1)]
    for idx, agent in overrides.items():
        agents[idx - 1] = agent
    mech = build_mechanism(
        "chain", network, agents, audit_probability=1.0, rng=np.random.default_rng(seed)
    )
    return mech.run()


def run_x8_collusion(
    workload: Workload | None = None,
    *,
    shed_fraction: float = 0.5,
) -> ExperimentResult:
    workload = workload or WORKLOADS["small-uniform"]
    table = Table(
        title="X8 — shedder/silent-victim coalitions and why they collapse",
        columns=[
            "m",
            "coalition surplus",
            "betrayal payoff F",
            "betrayal > surplus",
        ],
        notes=(
            "surplus = joint utility of (shedder, silent victim) minus joint truthful utility; "
            "the victim's betrayal payoff F always exceeds the whole surplus, so silence is never stable"
        ),
    )
    all_ok = True
    for m, network in workload.networks():
        if m < 2:
            continue
        shedder_idx = max(1, m // 2)
        victim_idx = shedder_idx + 1
        baseline = run_truthful(network.z, float(network.w[0]), network.w[1:])
        joint_truthful = baseline.utility(shedder_idx) + baseline.utility(victim_idx)

        # The coalition: shedder sheds, victim absorbs silently.
        colluded = _run(
            network,
            {
                shedder_idx: LoadSheddingAgent(
                    shedder_idx, float(network.w[shedder_idx]), shed_fraction=shed_fraction
                ),
                victim_idx: SilentVictimAgent(victim_idx, float(network.w[victim_idx])),
            },
        )
        assert not colluded.adjudications  # silence worked
        joint_colluded = colluded.utility(shedder_idx) + colluded.utility(victim_idx)
        surplus = joint_colluded - joint_truthful

        # Betrayal: same shedder, but the victim reports (default honest).
        betrayed = _run(
            network,
            {
                shedder_idx: LoadSheddingAgent(
                    shedder_idx, float(network.w[shedder_idx]), shed_fraction=shed_fraction
                ),
            },
        )
        [verdict] = [v for v in betrayed.adjudications if v.substantiated]
        betrayal_payoff = verdict.reward_amount  # the reward F

        ok = surplus > 0 and betrayal_payoff > surplus
        all_ok &= ok
        table.add_row(m, surplus, betrayal_payoff, str(betrayal_payoff > surplus))

    return ExperimentResult(
        experiment_id="X8",
        description="X8 — coalitions profit but are never self-enforcing",
        tables=[table],
        passed=all_ok,
        summary=(
            "coalitions have positive surplus, but the reporting reward F always buys the victim out"
            if all_ok
            else "coalition accounting violated expectations"
        ),
    )
