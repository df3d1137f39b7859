"""Benchmark P1: raw performance of the solver, simulator and mechanism.

These are classic pytest-benchmark micro/meso benchmarks (many rounds,
calibrated timings), complementing the experiment-level P1 report.
"""

import numpy as np
import pytest

from repro.agents.strategies import TruthfulAgent
from repro.dlt.batch import solve_linear_batch, stack_networks
from repro.dlt.linear import solve_linear_boundary, solve_linear_boundary_reference
from repro.experiments import run_p1_performance
from repro.mechanism.dls_lbl import DLSLBLMechanism
from repro.network.generators import random_linear_network
from repro.sim.linear_sim import simulate_linear_chain


@pytest.fixture(scope="module")
def networks():
    rng = np.random.default_rng(505)
    return {m: random_linear_network(m, rng) for m in (10, 100, 1000)}


@pytest.mark.parametrize("m", [10, 100, 1000])
def test_solver_throughput(benchmark, networks, m):
    net = networks[m]
    sched = benchmark(solve_linear_boundary, net)
    assert np.isclose(sched.alpha.sum(), 1.0)


@pytest.mark.parametrize("m", [10, 100])
def test_reference_solver_throughput(benchmark, networks, m):
    net = networks[m]
    sched = benchmark(solve_linear_boundary_reference, net)
    assert np.isclose(sched.alpha.sum(), 1.0)


@pytest.mark.parametrize("m", [10, 100, 1000])
def test_simulator_throughput(benchmark, networks, m):
    net = networks[m]
    alpha = solve_linear_boundary(net).alpha
    result = benchmark(simulate_linear_chain, net, alpha)
    assert result.makespan > 0


@pytest.mark.parametrize("m", [5, 20, 50])
def test_full_mechanism_run(benchmark, m):
    rng = np.random.default_rng(606)
    net = random_linear_network(m, rng)
    agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(net.w[1:], start=1)]

    def run():
        mech = DLSLBLMechanism(
            net.z, float(net.w[0]), agents, rng=np.random.default_rng(0)
        )
        return mech.run()

    outcome = benchmark(run)
    assert outcome.completed


@pytest.mark.parametrize("n", [100, 1000])
def test_batch_solver_throughput(benchmark, n):
    rng = np.random.default_rng(505)
    w, z = stack_networks([random_linear_network(10, rng) for _ in range(n)])
    batch = benchmark(solve_linear_batch, w, z)
    assert np.allclose(batch.alpha.sum(axis=1), 1.0)


def test_p3_report(benchmark, record_experiment):
    from repro.experiments import run_p3_batch

    result = benchmark.pedantic(run_p3_batch, rounds=1, iterations=1)
    record_experiment(result)


def test_p1_report(benchmark, record_experiment):
    result = benchmark.pedantic(run_p1_performance, rounds=1, iterations=1)
    record_experiment(result)


def test_p2_protocol_overhead(benchmark, record_experiment):
    from repro.experiments import run_p2_overhead

    result = benchmark.pedantic(run_p2_overhead, rounds=1, iterations=1)
    record_experiment(result)
