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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.experiments.runner import task_seed
from repro.obs.metrics import collecting, get_registry, merge_snapshots
from repro.obs.tracer import TraceEvent, Tracer, merge_traces

__all__ = ["PopulationResult", "make_deviant", "run_population"]

#: Deviant strategies injectable via ``INDEX:KIND[:PARAM]`` specs
#: (kind -> (agent class name, default parameter)).
_DEVIANT_KINDS = (
    "shed",
    "overcharge",
    "misbid",
    "slow",
    "contradict",
    "miscompute",
    "tamper",
    "accuse",
)

#: Deviant kinds the stacked arrays can express (bid/rate/bill columns).
#: Everything else — grievance-triggering deviants, aborts, proof
#: tampering, and any traced run — executes on the batch engine's
#: *lane* path (:class:`~repro.mechanism.batch_run.LaneChainMechanism`);
#: there is no scalar fallback.
_BATCHABLE_KINDS = frozenset({"overcharge", "misbid", "slow"})


def make_deviant(spec: str, true_rates: Sequence[float]):
    """Build a deviant agent from an ``INDEX:KIND[:PARAM]`` spec.

    ``INDEX`` is the 1-based agent index into ``true_rates``; ``KIND``
    is one of ``shed``, ``overcharge``, ``misbid``, ``slow``,
    ``contradict``, ``miscompute``, ``tamper``, ``accuse``.  Raises
    :class:`ValueError` on unknown kinds, malformed specs, non-finite
    parameters and parameters the agent class refuses.
    """
    from repro.agents import (
        ContradictoryBidAgent,
        FalseAccuserAgent,
        LoadSheddingAgent,
        MisbiddingAgent,
        MiscomputingAgent,
        OverchargingAgent,
        RelayTamperingAgent,
        SlowExecutionAgent,
    )

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
    t = float(true_rates[index - 1])
    factories = {
        "shed": lambda: LoadSheddingAgent(index, t, shed_fraction=param if param is not None else 0.5),
        "overcharge": lambda: OverchargingAgent(index, t, overcharge=param if param is not None else 1.0),
        "misbid": lambda: MisbiddingAgent(index, t, bid_factor=param if param is not None else 1.5),
        "slow": lambda: SlowExecutionAgent(index, t, slowdown=param if param is not None else 2.0),
        "contradict": lambda: ContradictoryBidAgent(index, t),
        "miscompute": lambda: MiscomputingAgent(index, t, w_bar_factor=param if param is not None else 0.8),
        "tamper": lambda: RelayTamperingAgent(index, t, d_factor=param if param is not None else 0.7),
        "accuse": lambda: FalseAccuserAgent(index, t),
    }
    if kind not in factories:
        raise ValueError(f"unknown deviant kind {kind!r}; choose from {sorted(factories)}")
    try:
        return factories[kind]()
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
        Merged metrics snapshot over all runs (wall-clock timers live
        here, never in ``events``).
    """

    runs: list[dict[str, Any]]
    events: list[TraceEvent] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)


def _run_one(
    index: int,
    m: int,
    seed: int,
    audit_probability: float,
    deviant: str | None,
    trace: bool,
    engine: str = "scalar",
) -> tuple[dict[str, Any], list[TraceEvent], dict[str, Any]]:
    """Execute one population member.  Module-level so it pickles into
    pool workers; everything returned is picklable.

    ``engine="lane"`` runs the member on the batch engine's lane path
    (:class:`~repro.mechanism.batch_run.LaneChainMechanism`) — same
    protocol, same outputs bitwise, crypto-free stand-ins."""
    from repro.agents import TruthfulAgent
    from repro.mechanism.ledger import MECHANISM
    from repro.network.generators import random_linear_network

    if engine == "lane":
        from repro.mechanism.batch_run import LaneChainMechanism as mechanism_cls
    else:
        from repro.mechanism.dls_lbl import DLSLBLMechanism as mechanism_cls

    run_seed = task_seed(f"mech/{index}", seed)
    rng = np.random.default_rng(run_seed)
    network = random_linear_network(m, rng)
    true_rates = [float(x) for x in network.w[1:]]
    agents = [TruthfulAgent(i, t) for i, t in enumerate(true_rates, start=1)]
    if deviant is not None:
        agent = make_deviant(deviant, true_rates)
        agents[agent.index - 1] = agent
    tracer = Tracer() if trace else None
    with collecting() as registry:
        mech = mechanism_cls(
            network.z,
            float(network.w[0]),
            agents,
            audit_probability=audit_probability,
            rng=rng,
            tracer=tracer,
        )
        outcome = mech.run()
        snapshot = registry.snapshot()
    fines = sum(e.amount for e in outcome.ledger.entries if e.creditor == MECHANISM)
    summary = {
        "index": index,
        "seed": run_seed,
        "m": m,
        "completed": outcome.completed,
        "aborted_phase": outcome.aborted_phase,
        "makespan": outcome.makespan,
        "fines_total": fines,
        "n_grievances": len(outcome.adjudications),
        "n_audits": len(outcome.audits),
        "mechanism_outlay": outcome.ledger.mechanism_outlay(),
    }
    events = tracer.events if tracer is not None else []
    return summary, events, snapshot


def _batchable(deviant: str | None, trace: bool) -> bool:
    """Whether a run is expressible as a stacked-array lane.

    Traced runs and grievance-triggering deviants are *not* — they take
    the batch engine's lane path instead (never the scalar mechanism)."""
    if trace:
        return False
    if deviant is None:
        return True
    parts = deviant.split(":")
    return len(parts) >= 2 and parts[1] in _BATCHABLE_KINDS


def _run_population_batch(
    m: int,
    count: int,
    seed: int,
    audit_probability: float,
    deviant: str | None,
) -> PopulationResult:
    """The whole population through :func:`~repro.mechanism.batch_run.run_chain_batch`.

    Each run's rng draws its network first and then its ``m`` audit
    draws, exactly as the scalar path consumes the stream; the stacked
    engine then reproduces every summary bitwise.  Metrics hold the
    engine's protocol counters (identical totals to the scalar runs;
    ``crypto.*`` counters and per-phase timers have no batched analogue).
    """
    from repro.mechanism.batch_run import run_chain_batch
    from repro.network.generators import random_linear_network

    w = np.empty((count, m + 1))
    z = np.empty((count, m))
    draws = np.empty((count, m))
    run_seeds: list[int] = []
    for index in range(count):
        run_seed = task_seed(f"mech/{index}", seed)
        run_seeds.append(run_seed)
        rng = np.random.default_rng(run_seed)
        network = random_linear_network(m, rng)
        w[index] = network.w
        z[index] = network.z
        draws[index] = rng.random(m)

    bids = execution_rates = bill_overcharge = None
    if deviant is not None:
        bids = w[:, 1:].copy()
        execution_rates = w[:, 1:].copy()
        bill_overcharge = np.zeros((count, m))
        for index in range(count):
            agent = make_deviant(deviant, [float(x) for x in w[index, 1:]])
            col = agent.index - 1
            bids[index, col] = agent.choose_bid()
            execution_rates[index, col] = agent.choose_execution_rate()
            # The bill inflation is the agent's markup over a zero base.
            bill_overcharge[index, col] = agent.phase4_bill(0.0)

    with collecting() as registry:
        outcome = run_chain_batch(
            w,
            z,
            bids=bids,
            execution_rates=execution_rates,
            bill_overcharge=bill_overcharge,
            audit_probability=audit_probability,
            audit_draws=draws,
        )
        snapshot = registry.snapshot()
    summaries = [
        {
            "index": index,
            "seed": run_seeds[index],
            "m": m,
            "completed": True,
            "aborted_phase": None,
            "makespan": float(outcome.makespan[index]),
            "fines_total": float(outcome.fines_total[index]),
            "n_grievances": 0,
            "n_audits": m,
            "mechanism_outlay": float(outcome.mechanism_outlay[index]),
        }
        for index in range(count)
    ]
    return PopulationResult(runs=summaries, events=[], metrics=snapshot)


def _run_population_masked(
    m: int,
    count: int,
    seed: int,
    audit_probability: float,
    specs: list[str | None],
    trace: bool,
    jobs: int,
) -> PopulationResult:
    """Masked per-lane routing through the batch engine.

    Lanes whose spec is array-expressible (and untraced) ride one stacked
    :func:`~repro.mechanism.batch_run.run_chain_batch` call; divergent
    lanes — grievance-triggering deviants, traced runs — execute on
    :class:`~repro.mechanism.batch_run.LaneChainMechanism`.  Summaries,
    events and metrics zip back in lane order, and per-lane counter
    snapshots merge into the live registry in that same order, so every
    observable (including the float fold order of counter totals) is
    bitwise-equal to the scalar loop.  No lane ever falls back to the
    scalar mechanisms.
    """
    from repro.mechanism.batch_run import chain_row_snapshots, run_chain_batch
    from repro.network.generators import random_linear_network

    lane_mask = [trace or not _batchable(specs[i], False) for i in range(count)]
    array_rows = [i for i in range(count) if not lane_mask[i]]
    lane_rows = [i for i in range(count) if lane_mask[i]]

    row_summary: dict[int, dict[str, Any]] = {}
    row_events: dict[int, list[TraceEvent]] = {}
    row_snapshot: dict[int, dict[str, Any]] = {}

    if array_rows:
        n_arr = len(array_rows)
        w = np.empty((n_arr, m + 1))
        z = np.empty((n_arr, m))
        draws = np.empty((n_arr, m))
        seeds = np.empty(n_arr, dtype=np.int64)
        for k, index in enumerate(array_rows):
            run_seed = task_seed(f"mech/{index}", seed)
            seeds[k] = run_seed
            rng = np.random.default_rng(run_seed)
            network = random_linear_network(m, rng)
            w[k] = network.w
            z[k] = network.z
            draws[k] = rng.random(m)
        bids = execution_rates = bill_overcharge = None
        if any(specs[index] is not None for index in array_rows):
            bids = w[:, 1:].copy()
            execution_rates = w[:, 1:].copy()
            bill_overcharge = np.zeros((n_arr, m))
            for k, index in enumerate(array_rows):
                if specs[index] is None:
                    continue
                agent = make_deviant(specs[index], [float(x) for x in w[k, 1:]])
                col = agent.index - 1
                bids[k, col] = agent.choose_bid()
                execution_rates[k, col] = agent.choose_execution_rate()
                bill_overcharge[k, col] = agent.phase4_bill(0.0)
        outcome = run_chain_batch(
            w,
            z,
            bids=bids,
            execution_rates=execution_rates,
            bill_overcharge=bill_overcharge,
            audit_probability=audit_probability,
            audit_draws=draws,
            # Counters merge per lane, in lane order, below.
            emit_metrics=False,
        )
        snapshots = chain_row_snapshots(outcome)
        for k, index in enumerate(array_rows):
            row_summary[index] = {
                "index": index,
                "seed": int(seeds[k]),
                "m": m,
                "completed": True,
                "aborted_phase": None,
                "makespan": float(outcome.makespan[k]),
                "fines_total": float(outcome.fines_total[k]),
                "n_grievances": 0,
                "n_audits": m,
                "mechanism_outlay": float(outcome.mechanism_outlay[k]),
            }
            row_events[index] = []
            row_snapshot[index] = snapshots[k]

    if jobs <= 1:
        # Interleave in lane order: lane rows merge their metric deltas
        # into the live registry as they run (``collecting`` on exit),
        # array rows merge their synthesized snapshots in between — the
        # same per-run fold order as the scalar loop.
        registry = get_registry()
        for index in range(count):
            if lane_mask[index]:
                summary, events, snapshot = _run_one(
                    index, m, seed, audit_probability, specs[index], trace, "lane"
                )
                row_summary[index] = summary
                row_events[index] = events
                row_snapshot[index] = snapshot
            elif array_rows:
                registry.merge(row_snapshot[index])
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _run_one, index, m, seed, audit_probability, specs[index], trace, "lane"
                )
                for index in lane_rows
            ]
            # Submission order, not completion order — determinism.
            results = [future.result() for future in futures]
        for index, (summary, events, snapshot) in zip(lane_rows, results):
            row_summary[index] = summary
            row_events[index] = events
            row_snapshot[index] = snapshot
        # Worker deltas never reached this process's registry; merge
        # every lane's snapshot in lane order, like the scalar pool path.
        registry = get_registry()
        for index in range(count):
            registry.merge(row_snapshot[index])

    summaries = [row_summary[index] for index in range(count)]
    events = merge_traces([row_events[index] for index in range(count)])
    metrics = merge_snapshots([row_snapshot[index] for index in range(count)])
    return PopulationResult(runs=summaries, events=events, metrics=metrics)


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

    ``use_batch=True`` routes the population through the batched
    Phase I–IV engine (:mod:`repro.mechanism.batch_run`) with **no
    scalar fallback**: array-expressible lanes (truthful and
    bid/rate/bill deviants, untraced) run as one stacked vectorized
    pass, and every other lane — grievance-triggering deviants, aborts,
    proof tampering, traced runs — executes on the engine's masked lane
    path, bitwise-equal to the scalar loop in every summary field,
    protocol counter, and trace byte.
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
    if use_batch:
        if deviants is None and _batchable(deviant, trace):
            return _run_population_batch(m, count, seed, audit_probability, deviant)
        return _run_population_masked(
            m, count, seed, audit_probability, specs, trace, jobs
        )
    tasks = [(i, m, seed, audit_probability, specs[i], trace) for i in range(count)]
    if jobs <= 1:
        outcomes = [_run_one(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_one, *task) for task in tasks]
            # Submission order, not completion order — determinism.
            outcomes = [future.result() for future in futures]
        # In-process runs merged their deltas via collecting(); worker
        # runs only merged into the (discarded) worker registry, so
        # bring their snapshots home here.
        registry = get_registry()
        for _summary, _events, snapshot in outcomes:
            registry.merge(snapshot)
    summaries = [summary for summary, _events, _snapshot in outcomes]
    events = merge_traces([events for _summary, events, _snapshot in outcomes])
    metrics = merge_snapshots([snapshot for _summary, _events, snapshot in outcomes])
    return PopulationResult(runs=summaries, events=events, metrics=metrics)
