"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.topology import LinearNetwork


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def two_proc_network() -> LinearNetwork:
    """The analytically tractable 2-processor chain: w=(2,2), z=(1,);
    alpha = (0.6, 0.4), makespan = 1.2."""
    return LinearNetwork(w=[2.0, 2.0], z=[1.0])


@pytest.fixture
def five_proc_network() -> LinearNetwork:
    """A fixed heterogeneous 5-processor chain used across tests."""
    return LinearNetwork(w=[2.0, 3.0, 2.5, 4.0, 1.5], z=[0.5, 0.3, 0.7, 0.2])


@pytest.fixture
def chain_rates(five_proc_network):
    """(z, root_rate, true_rates) convenience triple for mechanism tests."""
    net = five_proc_network
    return net.z, float(net.w[0]), [float(t) for t in net.w[1:]]


@pytest.fixture
def perfbench_output():
    """Build the detail line and result line a ``perfbench/run.py`` run
    ends with; keyword arguments beyond the run's identity are metrics."""
    import json

    from repro.obs.bench import machine_fingerprint

    def build(
        workload="population", *, seed=1, trace=0, correct=True, failed=0, cpus=2, **metrics
    ):
        machine = machine_fingerprint({"cpu_count": cpus, "platform": "test", "python": "3.11.7"})
        detail = {"workload": workload, "seed": seed, "trace": trace, "machine": machine}
        result = {
            "correct": correct,
            "attempted": 100,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
        }
        return json.dumps({"detail": detail}) + "\n" + json.dumps(result) + "\n"

    return build
