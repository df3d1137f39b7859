"""Experiment T5.1 — Theorem 5.1 / Lemmas 5.1–5.2 (compliance of
selfish-but-agreeable agents).

Runs every deviation class of Lemma 5.1 against an otherwise-truthful
chain and reports, per class: whether the deviation was detected, the
deviator's utility versus its truthful baseline, and whether any *honest*
processor was fined (Lemma 5.2 says never).  Overcharging (case (iv)) is
probabilistic, so its row reports the *expected* utility over audit
randomness alongside one sampled run.
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.agents.strategies import (
    ContradictoryBidAgent,
    FalseAccuserAgent,
    LoadSheddingAgent,
    MiscomputingAgent,
    OverchargingAgent,
    RelayTamperingAgent,
    TruthfulAgent,
)
from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.workloads import WORKLOADS, Workload
from repro.mechanism.dls_lbl import DLSLBLMechanism, MechanismOutcome
from repro.mechanism.properties import truthful_utilities_batch

__all__ = ["run_thm51_deviation", "run_single_deviation"]


def run_single_deviation(
    network,
    deviant: ProcessorAgent,
    *,
    audit_probability: float = 1.0,
    seed: int = 0,
) -> MechanismOutcome:
    """Run the mechanism with one deviant among truthful agents."""
    agents: list[ProcessorAgent] = [
        TruthfulAgent(i, float(t)) for i, t in enumerate(network.w[1:], start=1)
    ]
    agents[deviant.index - 1] = deviant
    mech = DLSLBLMechanism(
        network.z,
        float(network.w[0]),
        agents,
        audit_probability=audit_probability,
        rng=np.random.default_rng(seed),
    )
    return mech.run()


def _deviants_for(network) -> list[tuple[str, ProcessorAgent]]:
    m = network.m
    mid = max(1, m // 2)
    rates = network.w
    return [
        ("(i) contradictory msgs", ContradictoryBidAgent(mid, float(rates[mid]))),
        ("(ii) miscompute w_bar", MiscomputingAgent(mid, float(rates[mid]), w_bar_factor=0.8)),
        ("(ii) tamper relay D", RelayTamperingAgent(mid, float(rates[mid]), d_factor=0.7)),
        ("(iii) shed load", LoadSheddingAgent(mid, float(rates[mid]), shed_fraction=0.5)),
        ("(iv) overcharge", OverchargingAgent(mid, float(rates[mid]), overcharge=1.0)),
        ("(v) false accusation", FalseAccuserAgent(mid, float(rates[mid]))),
    ]


def run_thm51_deviation(
    workload: Workload | None = None,
    *,
    m: int = 5,
    audit_probability: float = 1.0,
) -> ExperimentResult:
    workload = workload or WORKLOADS["small-uniform"]
    network = workload.one(m)
    # The all-truthful baseline levies no fines, so its utilities are
    # exactly eq. 4.4.
    truthful_by_index = truthful_utilities_batch(
        network.z, float(network.w[0]), network.w[1:]
    )
    table = Table(
        title="Theorem 5.1 — every deviation is caught and unprofitable",
        columns=[
            "deviation",
            "deviant",
            "truthful U",
            "deviant U",
            "net gain",
            "detected",
            "honest fined",
        ],
        notes="audit probability q = %.2f (case (iv) is deterministically caught at q = 1)" % audit_probability,
    )
    all_ok = True
    for label, deviant in _deviants_for(network):
        outcome = run_single_deviation(network, deviant, audit_probability=audit_probability)
        idx = deviant.index
        truthful_u = truthful_by_index[idx]
        deviant_u = outcome.utility(idx)
        gain = deviant_u - truthful_u
        detected = bool(outcome.adjudications) or any(a.fine > 0 for a in outcome.audits)
        honest_fined = any(
            r.fines > 0 for i, r in outcome.reports.items() if i != idx
        )
        ok = gain <= 1e-9 and detected and not honest_fined
        all_ok &= ok
        table.add_row(label, f"P{idx}", truthful_u, deviant_u, gain, str(detected), str(honest_fined))
    return ExperimentResult(
        experiment_id="T5.1",
        description="Theorem 5.1 / Lemmas 5.1-5.2 — deviation detection and deterrence",
        tables=[table],
        passed=all_ok,
        summary=(
            "all deviation classes detected, fined beyond profit; honest agents never fined"
            if all_ok
            else "a deviation was profitable or an honest agent was fined"
        ),
    )
