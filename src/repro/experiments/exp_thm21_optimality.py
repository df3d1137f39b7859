"""Experiment T2.1 — Theorem 2.1 (participation/optimality).

The theorem: the optimal solution has *all* processors participating and
finishing at the same instant.  Validated two ways:

1. the Algorithm 1 schedule has strictly positive fractions and equal
   finishing times;
2. random feasible perturbations of the optimal allocation never beat it
   (local optimality measured on hundreds of perturbed allocations per
   instance).
"""

from __future__ import annotations

import numpy as np

from repro.dlt.batch import solve_many
from repro.dlt.timing import finishing_times, is_optimal_allocation, makespan
from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.workloads import WORKLOADS, Workload

__all__ = ["run_thm21_optimality", "perturbed_makespans"]


def perturbed_makespans(
    network, alpha: np.ndarray, rng: np.random.Generator, *, n_trials: int = 200, scale: float = 0.05
) -> np.ndarray:
    """Makespans of ``n_trials`` random feasible perturbations of
    ``alpha`` (Dirichlet-style renormalized jitter)."""
    spans = np.empty(n_trials)
    for k in range(n_trials):
        jitter = alpha * (1.0 + scale * rng.standard_normal(alpha.size))
        jitter = np.clip(jitter, 1e-12, None)
        jitter /= jitter.sum()
        spans[k] = makespan(network, jitter)
    return spans


def run_thm21_optimality(
    workload: Workload | None = None,
    *,
    n_trials: int = 200,
    seed: int = 101,
) -> ExperimentResult:
    workload = workload or WORKLOADS["small-uniform"]
    rng = np.random.default_rng(seed)
    table = Table(
        title="Theorem 2.1 — equal finish & local optimality",
        columns=[
            "m",
            "min alpha",
            "finish spread",
            "optimal signature",
            "min perturbed margin",
        ],
        notes="margin = min over trials of (perturbed makespan - optimal makespan); >= 0 confirms optimality",
    )
    all_ok = True
    pairs = list(workload.networks())
    # The batch kernel performs Algorithm 1's per-element arithmetic, one
    # stacked solve per chain length.
    schedules = solve_many([network for _, network in pairs])
    for (m, network), schedule in zip(pairs, schedules):
        times = finishing_times(network, schedule.alpha)
        spread = float(times.max() - times.min())
        signature = is_optimal_allocation(network, schedule.alpha)
        spans = perturbed_makespans(network, schedule.alpha, rng, n_trials=n_trials)
        margin = float(spans.min() - schedule.makespan)
        ok = (
            signature
            and schedule.alpha.min() > 0
            and margin >= -1e-9 * max(1.0, schedule.makespan)
        )
        all_ok &= ok
        table.add_row(m, float(schedule.alpha.min()), spread, str(signature), margin)
    return ExperimentResult(
        experiment_id="T2.1",
        description="Theorem 2.1 — all participate, all finish together, no perturbation wins",
        tables=[table],
        passed=all_ok,
        summary=(
            "Algorithm 1 schedules are simultaneous-finish and locally optimal"
            if all_ok
            else "found a perturbation beating the 'optimal' schedule"
        ),
    )
