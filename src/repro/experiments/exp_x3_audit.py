"""Experiment X3 (extension) — audit economics (deviation (iv)).

Overcharging by Δ yields Δ when unchallenged and costs ``F/q`` when
challenged, so the expected gain is ``Δ - q·(F/q) = Δ - F < 0`` whenever
``F > Δ`` — *independent of q*.  The audit probability only controls the
variance (and the root's verification workload).  The experiment sweeps
``q`` and Δ, comparing the analytic expectation with a Monte Carlo over
many mechanism runs, and reports the deterrence frontier ``F = Δ``.
"""

from __future__ import annotations

import numpy as np

from repro.agents.strategies import OverchargingAgent, TruthfulAgent
from repro.experiments.harness import ExperimentResult, Table
from repro.experiments.workloads import WORKLOADS, Workload
from repro.mechanism.properties import run_truthful

__all__ = ["run_x3_audit", "expected_overcharge_gain"]


def expected_overcharge_gain(delta: float, fine: float, q: float) -> float:
    """Closed-form expected gain of overcharging by ``delta``:
    ``(1-q)·delta + q·(delta - F/q) = delta - F``."""
    return delta - fine


def _vectorized_gains(
    z, root, agents, mid: int, q: float, truthful_u: float, draws: np.ndarray
) -> tuple[np.ndarray, float]:
    """Monte-Carlo gains of the overcharger over ``n_runs`` mechanism runs.

    The whole ``(n_runs, m)`` cell goes through the batched Phase I–IV
    engine: every row is the same chain with the overcharger's bill
    inflation in its column, and ``draws`` holds each run's audit
    stream as :class:`~repro.mechanism.dls_lbl.DLSLBLMechanism` consumes
    it (one Bernoulli challenge draw per agent in index order,
    row-major).  The engine's per-run utilities — including the ``F/q``
    penalty on challenged rows — are bitwise the scalar mechanism's.
    Returns ``(gains, fine)``.
    """
    from repro.mechanism.batch_run import run_chain_batch

    n_runs, m = draws.shape
    w = np.empty((n_runs, m + 1))
    w[:, 0] = float(root)
    w[:, 1:] = np.asarray([a.true_rate for a in agents], dtype=np.float64)
    z_rows = np.tile(np.asarray(z, dtype=np.float64), (n_runs, 1))
    overcharge = np.zeros((n_runs, m))
    # The agent's markup over a zero base is its bill inflation.
    overcharge[:, mid - 1] = agents[mid - 1].phase4_bill(0.0)
    outcome = run_chain_batch(
        w,
        z_rows,
        bill_overcharge=overcharge,
        audit_probability=q,
        audit_draws=draws,
    )
    return outcome.utilities[:, mid - 1] - truthful_u, float(outcome.fine[0])


def run_x3_audit(
    workload: Workload | None = None,
    *,
    m: int = 5,
    deltas: tuple[float, ...] = (0.5, 2.0, 8.0),
    qs: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0),
    n_runs: int = 400,
    seed: int = 303,
) -> ExperimentResult:
    workload = workload or WORKLOADS["small-uniform"]
    network = workload.one(m)
    z = network.z
    root = float(network.w[0])
    true = network.w[1:]
    mid = max(1, m // 2)
    baseline = run_truthful(z, root, true)
    truthful_u = baseline.utility(mid)

    table = Table(
        title="X3 — expected gain of overcharging vs audit probability",
        columns=["delta", "q", "fine F", "analytic E[gain]", "MC E[gain]", "deterred"],
        notes="E[gain] = delta - F independent of q; q only changes variance",
    )
    all_ok = True
    rng = np.random.default_rng(seed)
    for delta in deltas:
        for q in qs:
            agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(true, start=1)]
            agents[mid - 1] = OverchargingAgent(mid, float(true[mid - 1]), overcharge=delta)
            # Every cell draws its runs' audit streams (m draws per run,
            # row-major) from the shared rng, so runs are independent
            # samples.
            draws = rng.random((n_runs, m))
            gains, fine = _vectorized_gains(z, root, agents, mid, q, truthful_u, draws)
            analytic = expected_overcharge_gain(delta, fine, q)
            mc = float(gains.mean())
            # Standard error of the MC mean bounds the acceptable gap.
            se = float(gains.std(ddof=1) / np.sqrt(n_runs))
            deterred = analytic < 0
            all_ok &= deterred and abs(mc - analytic) < max(5.0 * se, 1e-6)
            table.add_row(delta, q, fine, analytic, mc, str(deterred))
    return ExperimentResult(
        experiment_id="X3",
        description="X3 — probabilistic audit deterrence (F/q penalty)",
        tables=[table],
        passed=all_ok,
        summary=(
            "overcharging loses F - delta in expectation at every audit probability"
            if all_ok
            else "audit deterrence failed or MC disagrees with the closed form"
        ),
    )
