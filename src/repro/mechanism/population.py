"""Population runs of DLS-LBL: many mechanism instances, one trace.

This is the observability layer's workhorse: draw ``count`` random
linear networks, run the mechanism on each, and collect every run's
trace events and metrics into a single deterministic record.  Seeds are
derived from run *identity* (``task_seed(f"mech/{index}", seed)``), the
per-run traces carry only simulated time and logical ids, and
:func:`~repro.obs.tracer.merge_traces` rebases ids in submission order —
so the merged trace is byte-identical at any ``--jobs`` count and across
repeated invocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.mechanism.rows import _solo_delta, map_ordered, run_rows
from repro.obs.metrics import collecting, fold_snapshots, get_registry
from repro.obs.tracer import TraceEvent, merge_traces
from repro.seeding import task_seed

__all__ = ["PopulationResult", "make_deviant", "run_population"]

#: Deviant strategies injectable via ``INDEX:KIND[:PARAM]`` specs: kind ->
#: (agent class name in :mod:`repro.agents`, parameter keyword, default
#: parameter); kinds with no keyword ignore ``PARAM``.
_DEVIANT_TABLE: dict[str, tuple[str, str | None, float | None]] = {
    "shed": ("LoadSheddingAgent", "shed_fraction", 0.5),
    "overcharge": ("OverchargingAgent", "overcharge", 1.0),
    "misbid": ("MisbiddingAgent", "bid_factor", 1.5),
    "slow": ("SlowExecutionAgent", "slowdown", 2.0),
    "contradict": ("ContradictoryBidAgent", None, None),
    "miscompute": ("MiscomputingAgent", "w_bar_factor", 0.8),
    "tamper": ("RelayTamperingAgent", "d_factor", 0.7),
    "accuse": ("FalseAccuserAgent", None, None),
}
_DEVIANT_KINDS = tuple(_DEVIANT_TABLE)


def make_deviant(spec: str, true_rates: Sequence[float]):
    """Build a deviant agent from an ``INDEX:KIND[:PARAM]`` spec.

    ``INDEX`` is the 1-based agent index into ``true_rates``; ``KIND``
    is one of ``shed``, ``overcharge``, ``misbid``, ``slow``,
    ``contradict``, ``miscompute``, ``tamper``, ``accuse``.  Raises
    :class:`ValueError` on unknown kinds, malformed specs, non-finite
    parameters and parameters the agent class refuses.
    """
    import repro.agents

    parts = spec.split(":")
    if not 2 <= len(parts) <= 3:
        raise ValueError(f"deviant spec must be INDEX:KIND[:PARAM], got {spec!r}")
    try:
        index = int(parts[0])
    except ValueError:
        raise ValueError(f"deviant index must be an integer in {spec!r}") from None
    kind = parts[1]
    try:
        param = float(parts[2]) if len(parts) > 2 else None
    except ValueError:
        raise ValueError(f"deviant param must be a number in {spec!r}") from None
    if param is not None and not math.isfinite(param):
        raise ValueError(f"deviant param must be finite in {spec!r}")
    if not 1 <= index <= len(true_rates):
        raise ValueError(f"deviant index {index} outside 1..{len(true_rates)}")
    if kind not in _DEVIANT_TABLE:
        raise ValueError(f"unknown deviant kind {kind!r}; choose from {sorted(_DEVIANT_TABLE)}")
    class_name, keyword, default = _DEVIANT_TABLE[kind]
    kwargs = {} if keyword is None else {keyword: default if param is None else param}
    try:
        return getattr(repro.agents, class_name)(index, float(true_rates[index - 1]), **kwargs)
    except ValueError as exc:
        raise ValueError(f"{exc} in deviant {spec!r}") from None


@dataclass(frozen=True)
class PopulationResult:
    """Outcome of :func:`run_population`.

    Attributes
    ----------
    runs:
        One summary dict per mechanism run, in index order.
    events:
        Merged trace events (empty unless tracing was requested); ids
        rebased so the stream is identical at any jobs count.
    metrics:
        Merged metrics snapshot over all runs (wall-clock ``perf.*``
        spans live here, never in ``events``).
    """

    runs: list[dict[str, Any]]
    events: list[TraceEvent] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)


def run_population(
    m: int,
    count: int,
    *,
    seed: int = 0,
    jobs: int = 1,
    audit_probability: float = 0.25,
    deviant: str | None = None,
    deviants: Sequence[str | None] | None = None,
    trace: bool = False,
    use_batch: bool = False,
) -> PopulationResult:
    """Run the mechanism on ``count`` random ``(m+1)``-processor chains.

    Run ``i`` draws its network and mechanism randomness from
    ``task_seed(f"mech/{i}", seed)``, so results (and the merged trace)
    are functions of ``(m, count, seed, audit_probability, deviant)``
    only — ``jobs`` changes wall-clock, never output.

    ``deviants`` assigns a per-run deviant spec (``None`` entries are
    truthful runs) and is mutually exclusive with ``deviant``, which
    applies one spec to every run.

    ``use_batch=True`` routes the population through the row engine
    (:func:`repro.mechanism.rows.run_rows`): untraced runs, whatever
    their deviant, take the stacked path (one vectorized pass;
    contradictions settled from the draw), and traced runs execute the
    scalar mechanism.  Every summary field, counter and trace byte
    equals the scalar loop's.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if deviants is not None:
        if deviant is not None:
            raise ValueError("pass either deviant or deviants, not both")
        specs = [None if s is None else str(s) for s in deviants]
        if len(specs) != count:
            raise ValueError(f"deviants must have length {count}, got {len(specs)}")
    else:
        specs = [deviant] * count
    seeds = [task_seed(f"mech/{i}", seed) for i in range(count)]
    if use_batch:
        # The stacked call's engine overhead (perf spans, dlt.batch.*
        # counters) is captured apart from the per-row deltas, as a pool
        # worker captures a served group's.
        with collecting(merge=False) as scope:
            rows = run_rows("chain", m, audit_probability, seeds, specs, trace=trace, jobs=jobs)
            overhead = scope.snapshot()
        # Untraced stacked rows hand back one block of counter columns.
        fields, all_events, snapshots = rows.fields, rows.events, [overhead, *rows.deltas]
    else:
        # The solo recipe per run, as run_rows runs its solo rows.
        tasks = [("chain", m, seeds[i], audit_probability, specs[i], trace) for i in range(count)]
        outcomes = map_ordered(_solo_delta, tasks, jobs)
        fields = [row_fields for row_fields, _events, _snapshot in outcomes]
        all_events = [events for _fields, events, _snapshot in outcomes]
        snapshots = [snapshot for _fields, _events, snapshot in outcomes]
    summaries = [{"index": i, "seed": seeds[i], "m": m, **fields[i]} for i in range(count)]
    # Every run's delta folds into the live registry in run order — the
    # float accumulation of a scalar loop, however the runs executed.
    metrics = fold_snapshots(snapshots, get_registry())
    events = merge_traces(all_events) if trace else []
    return PopulationResult(runs=summaries, events=events, metrics=metrics)
