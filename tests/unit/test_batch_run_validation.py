"""Input validation of the stacked mechanism engines.

Both engines reject a rate stack that no network could hold — a
negative or non-finite rate, or a link matrix of the wrong shape — with
:class:`~repro.exceptions.InvalidNetworkError`, as the scalar
mechanisms reject such networks, instead of returning a makespan.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidNetworkError, ProtocolViolation
from repro.mechanism.batch_run import run_chain_batch, run_star_batch

ENGINES = [run_chain_batch, run_star_batch]


@pytest.mark.parametrize("engine", ENGINES)
class TestStackValidation:
    def test_valid_stack_runs(self, engine):
        outcome = engine([[1.0, 2.0, 3.0]], [[0.5, 0.5]])
        assert np.isfinite(outcome.makespan).all()

    def test_negative_rate_rejected(self, engine):
        with pytest.raises(InvalidNetworkError, match="strictly positive"):
            engine([[1.0, -2.0, 3.0]], [[0.5, 0.5]])

    def test_negative_link_rejected(self, engine):
        with pytest.raises(InvalidNetworkError, match="strictly positive"):
            engine([[1.0, 2.0, 3.0]], [[0.5, -0.5]])

    def test_nan_rate_rejected(self, engine):
        with pytest.raises(InvalidNetworkError, match="finite"):
            engine([[1.0, np.nan, 3.0]], [[0.5, 0.5]])

    def test_infinite_link_rejected(self, engine):
        with pytest.raises(InvalidNetworkError, match="finite"):
            engine([[1.0, 2.0, 3.0]], [[np.inf, 0.5]])

    def test_link_shape_mismatch_rejected(self, engine):
        with pytest.raises(InvalidNetworkError, match="shape"):
            engine([[1.0, 2.0, 3.0]], [[0.5]])

    def test_rows_without_agents_rejected(self, engine):
        with pytest.raises(InvalidNetworkError, match="m >= 1|n >= 1"):
            engine([[1.0]], np.empty((1, 0)))


class TestGrievanceColumns:
    W = [[1.0, 2.0, 3.0, 2.5]]
    Z = [[0.5, 0.5, 0.5]]

    def test_two_grievances_in_a_row_rejected(self):
        # Two shedders: both victims grieve in the same run.
        shed = [[0.5, 0.5, np.nan]]
        with pytest.raises(ProtocolViolation, match="one grievance"):
            run_chain_batch(self.W, self.Z, shed=shed)

    def test_one_grievance_per_row_is_decided(self):
        outcome = run_chain_batch(
            self.W * 2,
            self.Z * 2,
            shed=[[np.nan, 0.5, np.nan], [np.nan] * 3],
            accuse=[[False] * 3, [False, False, True]],
        )
        assert outcome.grievances.tolist() == [1, 1]
        assert outcome.substantiated.tolist() == [True, False]

    def test_accuse_shape_mismatch_rejected(self):
        with pytest.raises(InvalidNetworkError, match="shape"):
            run_chain_batch(self.W, self.Z, accuse=[[True, False]])
