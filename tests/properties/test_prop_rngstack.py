"""Differential tests: :mod:`repro.rngstack` against ``default_rng``.

``random_stack`` re-implements ``default_rng(seed)`` (SeedSequence
mixing, PCG64 seeding and stepping, XSL-RR output) on arrays of seeds,
and ``rows._draw_stack`` takes it for stacks of at least ``CROSSOVER``
rows.  Every comparison here is bitwise, against NumPy's own generator
called the way the solo recipe calls it, so a NumPy stream change or a
slip in either path fails loudly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import rngstack
from repro.mechanism.rows import _draw_stack, draw_network
from repro.network.generators import REGIMES
from repro.rngstack import CROSSOVER, random_stack

#: Word-boundary seeds: one and two uint32 words, int64 and uint64 tops.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1]

seeds_u64 = st.one_of(
    st.sampled_from(EDGE_SEEDS), st.integers(min_value=0, max_value=2**64 - 1)
)


def _solo_draws(topology: str, m: int, seed: int):
    """The solo recipe's stream: the network draw, then the audit block."""
    rng = np.random.default_rng(seed)
    network = draw_network(topology, m, rng)
    return network.w, network.z, rng.random(m)


def _assert_rows_equal_solo(m: int, seeds, stack) -> None:
    w, z, draws = stack
    assert w.shape == (len(seeds), m + 1)
    assert z.shape == draws.shape == (len(seeds), m)
    for k, seed in enumerate(seeds):
        solo_w, solo_z, solo_draws = _solo_draws("chain", m, seed)
        assert np.array_equal(w[k], solo_w)
        assert np.array_equal(z[k], solo_z)
        assert np.array_equal(draws[k], solo_draws)


@pytest.fixture
def stack_calls(monkeypatch):
    """Counts :func:`random_stack` calls made by ``_draw_stack``."""
    calls = []

    def spy(seeds, k):
        calls.append(len(seeds))
        return random_stack(seeds, k)

    monkeypatch.setattr(rngstack, "random_stack", spy)
    return calls


class TestRandomStack:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(seeds_u64, min_size=1, max_size=40),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_rows_equal_default_rng_random(self, seeds, k):
        got = random_stack(seeds, k)
        assert got.shape == (len(seeds), k)
        for row, seed in zip(got, seeds):
            assert np.array_equal(row, np.random.default_rng(seed).random(k))

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("m", [0, 1, 8])
    def test_columns_equal_uniform_then_random_out(self, seed, m):
        """The draw order ``_draw_stack`` maps onto the columns:
        ``uniform`` rates, ``uniform`` links, then ``random(out=)``."""
        regime = REGIMES["uniform"]
        rng = np.random.default_rng(seed)
        w = rng.uniform(regime.draw_w.low, regime.draw_w.high, m + 1)
        z = rng.uniform(regime.draw_z.low, regime.draw_z.high, m)
        draws = np.empty(m)
        rng.random(out=draws)
        (unit,) = random_stack([seed], 3 * m + 1)
        assert np.array_equal(regime.draw_w.scale(unit[: m + 1]), w)
        assert np.array_equal(regime.draw_z.scale(unit[m + 1 : 2 * m + 1]), z)
        assert np.array_equal(unit[2 * m + 1 :], draws)


class TestDrawStackPaths:
    @pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1])
    def test_both_sides_of_the_crossover_equal_solo(self, n, stack_calls):
        m = 4
        seeds = EDGE_SEEDS + list(range(9000, 9000 + n - len(EDGE_SEEDS)))
        _assert_rows_equal_solo(m, seeds, _draw_stack(m, seeds))
        assert stack_calls == ([n] if n >= CROSSOVER else [])

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=9),
        seeds=st.lists(seeds_u64, min_size=CROSSOVER, max_size=CROSSOVER + 8),
    )
    def test_vectorized_stacks_equal_solo(self, m, seeds):
        _assert_rows_equal_solo(m, seeds, _draw_stack(m, seeds))

    def test_wide_seed_falls_back_to_the_loop(self, stack_calls):
        m = 3
        seeds = list(range(CROSSOVER + 10)) + [2**64, 2**64 + 5, 2**70]
        _assert_rows_equal_solo(m, seeds, _draw_stack(m, seeds))
        assert stack_calls == []

    def test_negative_seed_raises_like_default_rng(self, stack_calls):
        with pytest.raises(Exception) as expected:
            np.random.default_rng(-1)
        seeds = list(range(CROSSOVER + 10)) + [-1]
        with pytest.raises(expected.type):
            _draw_stack(4, seeds)
        assert stack_calls == []
