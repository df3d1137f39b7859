"""Experiment X1 (extension) — the cost of incentives at scale.

The mechanism pays compensation (the work's cost) plus a bonus (the
informational rent that makes truth-telling dominant).  This experiment
sweeps the chain length and reports the makespan, the total mechanism
outlay, and how the outlay splits between compensation and bonus — the
"price of strategyproofness" a deployer of DLS-LBL would budget for.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.workloads import WORKLOADS, Workload

__all__ = ["run_x1_scaling"]


def _batch_cost_rows(networks) -> np.ndarray:
    """``(n, 4)`` rows of (makespan, compute cost, bonus total, outlay) per
    instance, via one batched solve — the all-truthful analytic path (no
    fines, bill = Q)."""
    from repro.dlt.batch import solve_linear_batch, stack_networks
    from repro.mechanism.payments import payment_breakdown_batch
    from repro.sim.linear_sim import _EPS_LOAD

    w, z = stack_networks(networks)
    schedule = solve_linear_batch(w, z)
    # The Phase III simulator drops dust loads (<= _EPS_LOAD), so agents
    # with dust assignments never compute and take no payment (eq. 4.6);
    # mirror that participation threshold or deep chains over-count.
    assigned = schedule.alpha[:, 1:]
    computed = np.where(assigned > _EPS_LOAD, assigned, 0.0)
    payments = payment_breakdown_batch(schedule, computed=computed)
    compute_cost = np.sum(schedule.alpha * w, axis=1)
    bonus_total = payments.bonus.sum(axis=1)
    root_reimbursement = schedule.alpha[:, 0] * w[:, 0]
    outlay = root_reimbursement + payments.payment.sum(axis=1)
    return np.column_stack((schedule.makespan, compute_cost, bonus_total, outlay))


def run_x1_scaling(workload: Workload | None = None) -> ExperimentResult:
    workload = workload or WORKLOADS["scaling"]
    table = Table(
        title="X1 — mechanism cost vs chain length (truthful agents)",
        columns=[
            "m",
            "makespan",
            "compute cost",
            "bonus total",
            "total outlay",
            "overhead ratio",
        ],
        notes="overhead ratio = total outlay / compute cost; compute cost = sum alpha_i * w_i",
    )
    all_ok = True
    # All-truthful runs levy no fines, so the outlay is closed-form (root
    # reimbursement plus eq. 4.6 payments): one stacked solve per length.
    by_m: dict[int, list] = {}
    for m, network in workload.networks():
        by_m.setdefault(m, []).append(network)
    for m in sorted(by_m):
        rows = _batch_cost_rows(by_m[m])
        all_ok &= bool(np.all(rows[:, 3] >= rows[:, 1] - 1e-9))
        span, cost, bonus_total, outlay = rows.mean(axis=0)
        table.add_row(m, span, cost, bonus_total, outlay, outlay / cost if cost else float("nan"))
    return ExperimentResult(
        experiment_id="X1",
        description="X1 — payment overhead scaling",
        tables=[table],
        passed=all_ok,
        summary=(
            "mechanism outlay = compute cost + non-negative informational rent at every size"
            if all_ok
            else "outlay accounting inconsistent"
        ),
    )
