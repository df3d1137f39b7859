"""The column fold of a stacked call's counters is the per-row dict fold.

A stacked :func:`~repro.mechanism.rows.run_rows` call returns its rows'
``mechanism.*`` / ``ledger.*`` deltas as one
:class:`~repro.obs.metrics.CounterColumns` block, and
:func:`~repro.obs.metrics.fold_snapshots` folds it one sequential
accumulate per counter.  The reference is one
:meth:`~repro.obs.metrics.MetricsRegistry.merge` per per-row dict, in row
order.  Both the live registry and the returned fold must equal it as
``float.hex``, with the same keys in the same order, also from a registry
that already holds non-integer volumes; a key no row creates stays
absent.  Small stacks also check each row's dict against its solo run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanism.rows import _solo_delta, run_rows
from repro.obs.metrics import CounterColumns, MetricsRegistry, collecting, fold_snapshots
from repro.rngstack import CROSSOVER

Q = 0.5

#: What the registry holds before the rows arrive: non-integer volumes
#: round differently if a stack's sum is added in one step.
SEEDED = {"ledger.volume": 0.1, "mechanism.fine_volume": 0.7, "mechanism.runs": 3.0}

#: Chain contradictions (``phase_1``) between Phase II aborts
#: (``phase_2``), audited overchargers and truthful rows.
CHAIN_MIX = [None, "2:contradict", "3:miscompute", None, "3:tamper", "1:overcharge:3.0", "1:contradict"]
STAR_MIX = [None, "2:contradict", "2:shed:0.5", "1:overcharge:3.0", None, "3:accuse"]


def _seeded() -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, value in SEEDED.items():
        registry.inc(name, value)
    return registry


def _hex(counters: dict[str, float]) -> list[tuple[str, str]]:
    """Keys in order, values as ``float.hex`` (so -0.0 and the last ulp count)."""
    return [(name, value.hex()) for name, value in counters.items()]


def _block(topology: str, m: int, seeds: list[int], specs: list[str | None]) -> CounterColumns:
    with collecting(merge=False):
        rows = run_rows(topology, m, Q, seeds, specs)
    [block] = rows.deltas
    assert isinstance(block, CounterColumns)
    assert block.values.shape == block.present.shape == (len(seeds), len(block.names))
    return block


def assert_column_fold_is_dict_fold(block: CounterColumns) -> dict[str, float]:
    """Fold ``block`` as columns and as one merge per row dict, from a
    seeded registry; both targets must agree bitwise.  Returns the
    live counters."""
    reference = _seeded()
    own_reference = MetricsRegistry()
    for snapshot in block.snapshots():
        reference.merge(snapshot)
        own_reference.merge(snapshot)
    live = _seeded()
    own = fold_snapshots([block], live)["counters"]
    live_counters = live.snapshot()["counters"]
    assert _hex(live_counters) == _hex(reference.snapshot()["counters"])
    assert _hex(own) == _hex(own_reference.snapshot()["counters"])
    for value in (*live_counters.values(), *own.values()):
        assert type(value) is float
    return live_counters


def assert_rows_are_solo_deltas(topology, m, seeds, specs, block):
    """Each row's dict holds its solo run's protocol counters (the solo
    run creates them in its own order)."""
    for seed, spec, snapshot in zip(seeds, specs, block.snapshots()):
        solo = _solo_delta(topology, m, seed, Q, spec, False)[2]["counters"]
        protocol = {k: v for k, v in solo.items() if k.startswith(("mechanism.", "ledger."))}
        assert sorted(_hex(snapshot["counters"])) == sorted(_hex(protocol))


@pytest.mark.parametrize("n", [1, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 1024])
@pytest.mark.parametrize("topology", ["chain", "star"])
def test_mixed_stack(topology, n):
    """Deviant mixes on both sides of the stacked draw's crossover."""
    mix = CHAIN_MIX if topology == "chain" else STAR_MIX
    seeds = list(range(500, 500 + n))
    specs = [mix[k % len(mix)] for k in range(n)]
    block = _block(topology, 4, seeds, specs)
    counters = assert_column_fold_is_dict_fold(block)
    if n < CROSSOVER + 2:
        assert_rows_are_solo_deltas(topology, 4, seeds, specs, block)
    if topology == "chain" and n >= len(mix):
        # Contradictions abort in Phase I, the stacked check in Phase II.
        assert counters["mechanism.aborts.phase_1"] > 0
        assert counters["mechanism.aborts.phase_2"] > 0


@pytest.mark.parametrize("n", [1, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 1024])
@pytest.mark.parametrize("topology", ["chain", "star"])
def test_truthful_stack_creates_no_absent_keys(topology, n):
    """A truthful stack aborts nothing and bills correctly, so neither
    ``mechanism.aborts.*`` nor ``mechanism.fines`` may appear."""
    block = _block(topology, 3, list(range(n)), [None] * n)
    counters = assert_column_fold_is_dict_fold(block)
    assert "mechanism.fines" not in counters
    assert not any(name.startswith("mechanism.aborts") for name in counters)
    assert "mechanism.fines" in block.names  # a column no row has


def test_every_row_contradicts():
    """The contradiction block alone (no engine call)."""
    seeds = list(range(70))
    specs = [f"{1 + k % 3}:contradict" for k in range(70)]
    block = _block("chain", 3, seeds, specs)
    counters = assert_column_fold_is_dict_fold(block)
    assert counters["mechanism.aborts.phase_1"] == 70.0
    assert "mechanism.aborts.phase_2" not in counters


@settings(max_examples=25, deadline=None)
@given(
    topology=st.sampled_from(["chain", "star"]),
    m=st.integers(1, 6),
    base=st.integers(0, 2**32),
    kinds=st.lists(
        st.sampled_from([None, "contradict", "miscompute", "tamper", "overcharge", "shed", "accuse"]),
        min_size=1,
        max_size=80,
    ),
    agent=st.integers(1, 6),
)
def test_random_stacks(topology, m, base, kinds, agent):
    """Random deviant stacks on both topologies, with and without the
    contradiction scatter."""
    seeds = [base + k for k in range(len(kinds))]
    specs = [None if kind is None else f"{min(agent, m)}:{kind}" for kind in kinds]
    assert_column_fold_is_dict_fold(_block(topology, m, seeds, specs))
