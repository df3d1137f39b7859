"""The experiments' array paths against the scalar protocol runs.

``tests/data/experiments_scalar.txt`` pins the ``format()`` text of the
ten theorem and extension experiments that run on the batch helpers
(T2.1, T5.1–T5.4, X1–X3, X5, A3) at their default parameters, plus three
small cases.  It was written by the scalar code path those experiments
carried before they became array-only (commit 89fd38f, where that path
was the default), by running this module as a script against that
commit's sources::

    git archive 89fd38f src | tar -x -C /tmp/scalar
    PYTHONPATH=/tmp/scalar/src python tests/properties/test_prop_use_batch.py \\
        > tests/data/experiments_scalar.txt

Compare ``format()`` text, not ``Table.rows``: X1's stacked outlay sums
differ from the protocol runs' in the last bits (≤ 5e-14 relative) but
print identically.

The ``X4`` (DLS-LIL) and ``X6`` (tree mechanism) sections have no array
path; they pin the scalar mechanisms themselves.  They were appended
later, written the same way at commit 10498c4 (the parent of the change
that merged the four scalar mechanisms onto one protocol skeleton)::

    git archive 10498c4 src | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src:. python - <<'PY' >> tests/data/experiments_scalar.txt
    from tests.properties.test_prop_use_batch import render
    print("".join(f"### {c}\\n{render(c)}\\n" for c in ("X4", "X6")), end="")
    PY

The library helpers the experiments call keep their own differential
tests here: ``sweep_bids_batch`` / ``truthful_utilities_batch`` against
the full mechanism, and the vectorized solution-bonus Monte Carlo
against the scalar loop (bitwise: same draws, same predicates).
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.agents.annoying import DataCorruptingAgent, DuplicatingAgent
from repro.agents.strategies import TruthfulAgent
from repro.experiments import Workload
from repro.experiments.runner import run_experiments
from repro.experiments.workloads import WORKLOADS
from repro.mechanism.properties import (
    run_truthful,
    sweep_bids,
    sweep_bids_batch,
    truthful_utilities_batch,
)
from repro.mechanism.solution_bonus import SolutionBonusConfig, simulate_solution_rounds

TOL = 1e-9

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "data", "experiments_scalar.txt")

TINY = Workload("tiny", "uniform", sizes=(2, 4), seed=99, instances_per_size=2)

#: Case name -> (experiment id, keyword overrides).
CASES: dict[str, tuple[str, dict]] = {
    **{
        exp_id: (exp_id, {})
        for exp_id in ("T2.1", "T5.1", "T5.2", "T5.3", "T5.4", "X1", "X2", "X3", "X5", "A3")
    },
    "X3-small": ("X3", {"n_runs": 30, "deltas": (0.5, 8.0), "qs": (0.25, 1.0)}),
    "X5-small": ("X5", {"sizes": (1, 2, 4), "instances": 2}),
    "T2.1-tiny": ("T2.1", {"workload": TINY, "n_trials": 20}),
    # The scalar-only extensions: DLS-LIL (X4) and the tree mechanism (X6).
    "X4": ("X4", {}),
    "X6": ("X6", {}),
}


def render(case: str) -> str:
    """One case's text, run through the experiment runner."""
    exp_id, kwargs = CASES[case]
    [run] = run_experiments([exp_id], experiment_kwargs={exp_id: kwargs})
    return run.result.format()


def _golden() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        sections = fh.read().split("### ")[1:]
    return dict(section.rstrip("\n").split("\n", 1) for section in sections)


class TestScalarGolden:
    @pytest.mark.parametrize("case", list(CASES))
    def test_format_matches_scalar_path(self, case):
        assert render(case) == _golden()[case]


@pytest.fixture(scope="module")
def network():
    return WORKLOADS["small-uniform"].one(5)


class TestSweepBidsBatch:
    def test_matches_mechanism_sweep(self, network):
        z, root, true = network.z, float(network.w[0]), network.w[1:]
        for agent_index in (1, 3, 5):
            scalar = sweep_bids(z, root, true, agent_index)
            batch = sweep_bids_batch(z, root, true, agent_index)
            np.testing.assert_allclose(batch.utilities, scalar.utilities, atol=TOL)
            assert abs(batch.truthful_utility - scalar.truthful_utility) <= TOL
            assert batch.truthful_is_optimal == scalar.truthful_is_optimal

    def test_matches_mechanism_with_slowdown(self, network):
        z, root, true = network.z, float(network.w[0]), network.w[1:]
        rate = 2.0 * float(true[1])
        scalar = sweep_bids(z, root, true, 2, execution_rate=rate)
        batch = sweep_bids_batch(z, root, true, 2, execution_rate=rate)
        np.testing.assert_allclose(batch.utilities, scalar.utilities, atol=TOL)

    def test_truthful_utilities_match_protocol_run(self, network):
        z, root, true = network.z, float(network.w[0]), network.w[1:]
        outcome = run_truthful(z, root, true)
        batch = truthful_utilities_batch(z, root, true)
        for i in range(1, len(true) + 1):
            assert abs(batch[i] - outcome.utility(i)) <= TOL


class TestVectorizedSolutionRounds:
    def test_bitwise_equal_to_scalar_loop(self, network):
        agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(network.w[1:], start=1)]
        agents[1] = DataCorruptingAgent(2, float(network.w[2]), corrupt_fraction=0.5)
        agents[2] = DuplicatingAgent(3, float(network.w[3]), duplicate_fraction=0.3)
        forwarded = np.array([0.0, 0.4, 0.3, 0.2, 0.1, 0.0])
        config = SolutionBonusConfig(s=0.5)
        scalar = simulate_solution_rounds(
            agents, forwarded, config, np.random.default_rng(9), n_rounds=5000
        )
        vectorized = simulate_solution_rounds(
            agents, forwarded, config, np.random.default_rng(9),
            n_rounds=5000, vectorized=True,
        )
        assert scalar == vectorized


if __name__ == "__main__":
    sys.stdout.write("".join(f"### {case}\n{render(case)}\n" for case in CASES))
