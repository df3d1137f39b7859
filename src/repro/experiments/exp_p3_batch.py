"""Experiment P3 — batch solver equivalence and throughput.

The engineering check for :mod:`repro.dlt.batch`: solve large populations
of random linear and star instances both through the scalar per-network
solvers and through one vectorized batch call, assert elementwise
agreement (allocations, makespans, service orders) to 1e-9, and report
the measured speedup.  The batched Phase IV payments are cross-checked
against the scalar :func:`~repro.mechanism.payments.payment_breakdown`
on the same instances.

Equivalence is the pass criterion; the speedup columns are informational
and machine-dependent.  The tracked speed record is ``perfbench/``'s, in
``BENCH_history.jsonl``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dlt.batch import solve_linear_batch, solve_star_batch, stack_networks
from repro.dlt.linear import solve_linear_boundary
from repro.dlt.star import solve_star
from repro.experiments.harness import ExperimentResult, Table, best_of
from repro.mechanism.payments import payment_breakdown, payment_breakdown_batch
from repro.network.generators import random_linear_network, random_star_network

__all__ = ["run_p3_batch"]

#: Scalar/batch agreement tolerance (absolute and relative).
TOL = 1e-9


def run_p3_batch(
    *,
    n_networks: int = 1000,
    m: int = 10,
    n_star: int = 300,
    n_children: int = 8,
    seed: int = 707,
) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    table = Table(
        title="P3 — batch vs scalar solving",
        columns=["architecture", "N", "scalar (s)", "batch (s)", "speedup", "max |Δalpha|", "agree"],
        notes=f"agree = allocations and makespans match elementwise to {TOL:g}",
    )
    all_ok = True

    # Linear chains: Algorithm 1, scalar loop vs one stacked call.
    networks = [random_linear_network(m, rng) for _ in range(n_networks)]
    t_scalar = best_of(lambda: [solve_linear_boundary(net) for net in networks], repeats=3)
    w, z = stack_networks(networks)
    t_batch = best_of(lambda: solve_linear_batch(w, z), repeats=3)
    scalars = [solve_linear_boundary(net) for net in networks]
    batch = solve_linear_batch(w, z)
    alpha_scalar = np.stack([s.alpha for s in scalars])
    delta = float(np.abs(alpha_scalar - batch.alpha).max())
    spans = np.array([s.makespan for s in scalars])
    agree = bool(
        np.allclose(alpha_scalar, batch.alpha, rtol=TOL, atol=TOL)
        and np.allclose(spans, batch.makespan, rtol=TOL, atol=TOL)
        and np.allclose(batch.alpha.sum(axis=1), 1.0, rtol=TOL, atol=TOL)
    )
    all_ok &= agree
    table.add_row("linear", n_networks, t_scalar, t_batch,
                  t_scalar / t_batch if t_batch > 0 else float("inf"), delta, str(agree))

    # Stars: by-link order, scalar loop vs one stacked call.
    stars = [random_star_network(n_children, rng) for _ in range(n_star)]
    t_scalar_star = best_of(lambda: [solve_star(net) for net in stars], repeats=3)
    sw, sz = stack_networks(stars)
    t_batch_star = best_of(lambda: solve_star_batch(sw, sz), repeats=3)
    star_scalars = [solve_star(net) for net in stars]
    star_batch = solve_star_batch(sw, sz)
    star_alpha = np.stack([s.alpha for s in star_scalars])
    star_delta = float(np.abs(star_alpha - star_batch.alpha).max())
    star_agree = bool(
        np.allclose(star_alpha, star_batch.alpha, rtol=TOL, atol=TOL)
        and all(
            tuple(int(c) for c in star_batch.orders[i]) == star_scalars[i].order
            for i in range(n_star)
        )
        and np.allclose(star_batch.alpha.sum(axis=1), 1.0, rtol=TOL, atol=TOL)
    )
    all_ok &= star_agree
    table.add_row("star", n_star, t_scalar_star, t_batch_star,
                  t_scalar_star / t_batch_star if t_batch_star > 0 else float("inf"),
                  star_delta, str(star_agree))

    # Batched Phase IV payments against the scalar breakdown on a subset.
    n_pay = min(50, n_networks)
    pay_stack = solve_linear_batch(*stack_networks(networks[:n_pay]))
    start = time.perf_counter()
    pay_batch = payment_breakdown_batch(pay_stack)
    t_batch_pay = time.perf_counter() - start
    start = time.perf_counter()
    scalar_pays = [
        [
            payment_breakdown(
                proc=j,
                is_terminal=(j == net.m),
                assigned=float(sched.alpha[j]),
                computed=float(sched.alpha[j]),
                actual_rate=float(net.w[j]),
                own_bid=float(net.w[j]),
                own_w_bar=float(sched.w_eq[j]),
                own_alpha_hat=float(sched.alpha_hat[j]),
                predecessor_bid=float(net.w[j - 1]),
                z_link=float(net.z[j - 1]),
            )
            for j in range(1, net.m + 1)
        ]
        for net, sched in zip(networks[:n_pay], scalars[:n_pay])
    ]
    t_scalar_pay = time.perf_counter() - start
    pay_delta = max(
        abs(row[j].payment - pay_batch.payment[i, j])
        for i, row in enumerate(scalar_pays)
        for j in range(len(row))
    )
    pay_agree = pay_delta <= TOL
    all_ok &= pay_agree
    table.add_row("payments", n_pay, t_scalar_pay, t_batch_pay,
                  t_scalar_pay / t_batch_pay if t_batch_pay > 0 else float("inf"),
                  pay_delta, str(pay_agree))

    return ExperimentResult(
        experiment_id="P3",
        description="P3 — vectorized batch solving equals the scalar path",
        tables=[table],
        passed=all_ok,
        summary=(
            "batch solvers and payments match the scalar path elementwise"
            if all_ok
            else "batch path diverges from the scalar solvers"
        ),
    )
