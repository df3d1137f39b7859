"""Task seeds live in a dependency-free leaf module."""

from __future__ import annotations

import os
import subprocess
import sys

import repro
from repro.seeding import task_seed


def test_experiments_package_reexports_the_leaf_function():
    from repro.experiments import task_seed as from_experiments
    from repro.experiments.runner import task_seed as from_runner

    assert from_experiments is task_seed
    assert from_runner is task_seed


def test_population_runner_does_not_load_the_experiment_registry():
    # The row engine never uses the 27 experiment modules (nor networkx,
    # which the topology figure pulls in); importing the population
    # runner must not pay for them.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, repro.mechanism.population, repro.faults.runner; "
        "print(sorted(m for m in ('repro.experiments', 'networkx') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
