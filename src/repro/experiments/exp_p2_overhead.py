"""Experiment P2 — protocol overhead of the verification machinery.

The "with verification" part of the mechanism costs signatures,
signature verifications, and message relays.  This experiment counts
them per honest run as the chain grows and confirms they scale linearly
in ``m`` (each processor signs O(1) values and verifies the O(1)
components of one ``G`` bundle, and the audit adds O(1) per challenged
bill) — the mechanism adds bounded per-node overhead to the underlying
DLT schedule.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult, Table
from repro.mechanism.properties import run_truthful
from repro.network.generators import random_linear_network
from repro.obs.metrics import collecting

__all__ = ["run_p2_overhead"]


def run_p2_overhead(
    *,
    sizes: tuple[int, ...] = (2, 5, 10, 20, 50),
    seed: int = 1010,
) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    table = Table(
        title="P2 — signatures and verifications per honest run (q = 1)",
        columns=["m", "signatures", "per node", "verifications", "per node"],
        notes="audit probability 1 (every bill challenged) — the worst case",
    )
    all_ok = True
    per_node_sigs = []
    per_node_verifs = []
    for m in sizes:
        network = random_linear_network(m, rng)
        # Each size's own delta; it still folds into the enclosing registry.
        with collecting() as registry:
            outcome = run_truthful(network.z, float(network.w[0]), network.w[1:])
        sigs = int(registry.counter("crypto.signatures_created"))
        verifs = int(registry.counter("crypto.verifications_performed"))
        all_ok &= outcome.completed
        per_node_sigs.append(sigs / m)
        per_node_verifs.append(verifs / m)
        table.add_row(m, sigs, sigs / m, verifs, verifs / m)
    # Linearity: per-node counts are bounded by a constant (allow slack
    # for the O(1) fixed costs amortized over small m).
    all_ok &= max(per_node_sigs) <= 2.0 * min(per_node_sigs) + 5
    all_ok &= max(per_node_verifs) <= 2.0 * min(per_node_verifs) + 10
    return ExperimentResult(
        experiment_id="P2",
        description="P2 — verification overhead scales linearly in m",
        tables=[table],
        passed=all_ok,
        summary=(
            "O(1) signatures and verifications per node, independent of chain length"
            if all_ok
            else "overhead grew superlinearly"
        ),
    )
