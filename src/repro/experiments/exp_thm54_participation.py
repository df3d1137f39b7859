"""Experiment T5.4 — Theorem 5.4 (voluntary participation).

Truthful processors never end a run with negative utility.  Measured
across regimes and chain lengths; also reports the utility *profile*
(who earns how much) since the bonus ``w_{j-1} - w_bar_{j-1}`` gives
position-dependent rents.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.workloads import WORKLOADS, Workload
from repro.mechanism.properties import truthful_utilities_batch

__all__ = ["run_thm54_participation"]


def run_thm54_participation(workloads: list[Workload] | None = None) -> ExperimentResult:
    workloads = workloads or [
        WORKLOADS["small-uniform"],
        WORKLOADS["heterogeneous"],
        WORKLOADS["slow-links"],
        WORKLOADS["fast-links"],
    ]
    table = Table(
        title="Theorem 5.4 — truthful utilities are non-negative",
        columns=["workload", "m", "min utility", "mean utility", "max utility", "VP holds"],
    )
    all_ok = True
    for workload in workloads:
        for m, network in workload.networks():
            # All-truthful runs levy no fines, so the vectorized eq. 4.4
            # evaluation is the VP check itself.
            by_index = truthful_utilities_batch(
                network.z, float(network.w[0]), network.w[1:]
            )
            utilities = np.array([by_index[i] for i in range(1, m + 1)])
            holds = bool(utilities.min() >= -1e-9)
            all_ok &= holds
            table.add_row(
                workload.name,
                m,
                float(utilities.min()),
                float(utilities.mean()),
                float(utilities.max()),
                str(holds),
            )
    return ExperimentResult(
        experiment_id="T5.4",
        description="Theorem 5.4 — voluntary participation",
        tables=[table],
        passed=all_ok,
        summary=(
            "every truthful agent finishes with non-negative utility"
            if all_ok
            else "a truthful agent incurred a loss"
        ),
    )
