"""Input validation of the stacked mechanism engines.

Both engines reject a rate stack that no network could hold — a
negative or non-finite rate, or a link matrix of the wrong shape — with
:class:`~repro.exceptions.InvalidNetworkError`, as the scalar
mechanisms reject such networks, instead of returning a makespan.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidNetworkError
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
