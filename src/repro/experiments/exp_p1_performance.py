"""Experiment P1 — solver and simulator performance.

Not a paper artifact, but the reproduction's engineering check: the
vectorized Algorithm 1 solver against the pure-Python reference
transcription, and the discrete-event simulator's event throughput.
Each time is the fastest of a few runs
(:func:`~repro.experiments.harness.best_of`); the pytest-benchmark
target wraps the same callables for calibrated numbers.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.linear import solve_linear_boundary, solve_linear_boundary_reference
from repro.experiments.harness import ExperimentResult, Table, best_of
from repro.network.generators import random_linear_network
from repro.sim.linear_sim import simulate_linear_chain

__all__ = ["run_p1_performance"]


def run_p1_performance(
    *, sizes: tuple[int, ...] = (10, 100, 1000, 5000), seed: int = 404
) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    table = Table(
        title="P1 — solver/simulator performance",
        columns=["m", "solve (s)", "reference (s)", "speedup", "DES (s)", "DES events/s", "agree"],
    )
    all_ok = True
    for m in sizes:
        network = random_linear_network(m, rng)
        t_vec = best_of(lambda: solve_linear_boundary(network), repeats=5)
        t_ref = best_of(lambda: solve_linear_boundary_reference(network), repeats=5)
        sched = solve_linear_boundary(network)
        ref = solve_linear_boundary_reference(network)
        agree = bool(np.allclose(sched.alpha, ref.alpha, rtol=1e-12))
        all_ok &= agree

        def run_sim():
            return simulate_linear_chain(network, sched.alpha)

        t_sim = best_of(run_sim, repeats=3)
        result = run_sim()
        # Count actual activity: deep chains truncate once the forwarded
        # remainder falls below the load-dust threshold.
        events = len(result.trace.intervals)
        table.add_row(
            m,
            t_vec,
            t_ref,
            t_ref / t_vec if t_vec > 0 else float("inf"),
            t_sim,
            events / t_sim if t_sim > 0 else float("inf"),
            str(agree),
        )
    return ExperimentResult(
        experiment_id="P1",
        description="P1 — Algorithm 1 solver and DES throughput",
        tables=[table],
        passed=all_ok,
        summary=(
            "vectorized solver agrees with the reference at every size"
            if all_ok
            else "solver implementations disagree"
        ),
    )
