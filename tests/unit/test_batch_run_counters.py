"""The counters a stacked engine emits are the per-row fold.

With ``emit_metrics=True``, :func:`run_chain_batch` / :func:`run_star_batch`
must leave the active registry exactly where folding each row's scalar
run delta in row order leaves it, also when the registry already holds
``ledger.volume`` and ``mechanism.fine_volume``: there, adding a stack's
summed volume in one step rounds differently from the per-row fold.
Contradictory bids, settled from the draw by
:func:`contradiction_aborts`, fold ahead of the stack.
"""

import numpy as np
import pytest

from repro.mechanism.batch_run import contradiction_aborts, run_chain_batch, run_star_batch
from repro.mechanism.population import make_deviant
from repro.mechanism.rows import _draw_stack, _solo_delta
from repro.obs.metrics import collecting, get_registry

M, Q = 4, 0.5

#: Counts a registry holds before the rows arrive.
SEEDED = {"ledger.volume": 0.1, "mechanism.fine_volume": 0.7, "mechanism.runs": 3.0}

#: Contradictions first (they never reach the engine), then the stack:
#: truthful rows, audited overchargers, and the chain's Phase II aborts
#: (relay tampering) or the star's meter-detected sheds.
SPECS = ["1:contradict", "3:contradict", "2:contradict"] + [
    None,
    "2:overcharge",
    "3:tamper",
    "4:overcharge",
    "2:shed:0.5",
    "1:overcharge:3.0",
] * 8


def _protocol(registry):
    """The ``mechanism.*`` / ``ledger.*`` counters (a scalar run's
    ``crypto.*`` and ``sim.*`` work and the stacked solve's
    ``dlt.batch.*`` calls have no counterpart on the other path)."""
    counters = registry.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith(("mechanism.", "ledger."))}


def _seeded():
    registry = get_registry()
    for name, value in SEEDED.items():
        registry.inc(name, value)
    return registry


def _scalar_fold(topology, seeds):
    """Each row's solo run delta, folded in row order into a seeded
    registry."""
    with collecting(merge=False):
        registry = _seeded()
        for seed, spec in zip(seeds, SPECS):
            registry.merge(_solo_delta(topology, M, seed, Q, spec, False)[2])
        return _protocol(registry)


def _stacked_emit(topology, seeds):
    """The same rows: contradictions' snapshots folded, then one engine
    call with ``emit_metrics=True`` into a seeded registry."""
    star = topology == "star"
    w, z, draws = _draw_stack(M, seeds)
    agents = [
        None if spec is None else make_deviant(spec, w[k, 1:]) for k, spec in enumerate(SPECS)
    ]
    split = sum(spec is not None and spec.endswith("contradict") for spec in SPECS)
    columns = {
        "bill_overcharge": np.zeros((len(seeds) - split, M)),
        "shed": np.full((len(seeds) - split, M), np.nan),
        "d_factor": np.full((len(seeds) - split, M), np.nan),
    }
    for k, agent in enumerate(agents[split:]):
        if agent is None:
            continue
        col = agent.index - 1
        columns["bill_overcharge"][k, col] = agent.phase4_bill(0.0)
        if hasattr(agent, "shed_fraction"):
            columns["shed"][k, col] = agent.shed_fraction
        if hasattr(agent, "d_factor"):
            columns["d_factor"][k, col] = agent.d_factor
    if star:  # the star has no relay to tamper with
        del columns["d_factor"]
    with collecting(merge=False):
        registry = _seeded()
        contradictors = np.array([agent.index for agent in agents[:split]])
        for snapshot in contradiction_aborts(w[:split], contradictors, star=star)[2]:
            registry.merge(snapshot)
        engine = run_star_batch if star else run_chain_batch
        outcome = engine(
            w[split:], z[split:], audit_probability=Q, audit_draws=draws[split:], **columns
        )
        return _protocol(registry), outcome


@pytest.mark.parametrize("topology", ["chain", "star"])
@pytest.mark.parametrize("base", [0, 1000])
def test_emitted_counters_equal_the_row_by_row_fold(topology, base):
    seeds = list(range(base, base + len(SPECS)))
    counters, outcome = _stacked_emit(topology, seeds)
    # The stack holds what the test means to cover.
    assert outcome.audit_fines.any()
    if topology == "chain":
        assert outcome.aborted.any()
    else:
        assert (outcome.computed[:, 1:] < outcome.assigned[:, 1:]).any()
    assert counters == _scalar_fold(topology, seeds)
