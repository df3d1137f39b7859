"""The row engine: route, run and fold chain, star and tree mechanism rows.

A *row* is one mechanism run identified by its topology, size ``m``,
audit probability, seed and optional deviant spec.  Population runs,
the serving engine and the fault runner all execute rows; this module
is the one place that knows how:

- :func:`draw_network` / :func:`agent_rates` — the network a row's
  ``default_rng(seed)`` draws first (chain, star, or a random rooted
  tree of ``m + 1`` nodes) and its strategic agents' true rates
  (:func:`preorder_rates` for trees);
- :func:`build_mechanism` — scalar or lane (crypto-free batch-engine
  subclass) × chain or star, and the scalar tree mechanism;
- :func:`solo_row` — the one solo recipe, the reference every other
  path is bitwise-equal to;
- :func:`run_rows` — the router: rows whose deviant the stacked arrays
  can express (:data:`ARRAY_KINDS`, untraced, not trees) ride one
  :func:`~repro.mechanism.batch_run.run_chain_batch` /
  :func:`~repro.mechanism.batch_run.run_star_batch` call; every other
  row runs the solo recipe on the lane engine (trees: the scalar tree
  mechanism, counted in ``mechanism.scalar_fallbacks``).

:func:`run_rows` returns, per row, the outcome fields and an *unmerged*
counter snapshot: what that row's solo run contributes to the
``mechanism.*`` / ``ledger.*`` counters.  Callers fold the snapshots in
row order, which reproduces a solo loop's float accumulation exactly.
Engine overhead that no solo run has (the stacked call's perf spans and
``dlt.batch.*`` counters, the tree fallback count) lands in the active
registry instead.

The rng discipline: a solo run consumes ``default_rng(seed)`` as network
draw, then one ``rng.random()`` per audit; a pre-shaped ``rng.random(m)``
block equals those sequential draws bitwise.  Stacked chain and star
rows make the same generator calls in the same order —
:func:`~repro.network.generators.draw_rates` (``m + 1`` rates, then
``m`` links), then the audit block — straight into the stack's ``w``,
``z`` and draw matrices, so no network object is built per row and the
stream is the solo run's by construction.  The batch engine validates
the finished stack once (finite, strictly positive: one reduction per
matrix) where the solo run validates each network.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.metrics import collecting, get_registry
from repro.obs.perf import span as perf_span
from repro.obs.tracer import TraceEvent, Tracer

__all__ = [
    "ARRAY_KINDS",
    "RowsResult",
    "agent_rates",
    "array_expressible",
    "build_mechanism",
    "draw_network",
    "map_ordered",
    "preorder_rates",
    "run_rows",
    "solo_row",
]

#: Deviant kinds the stacked arrays express, per topology: the bid, rate
#: and bill columns, plus the ``shed`` and ``accuse`` verdict columns.
#: The star never calls the Phase I/II computation hooks, so its
#: ``miscompute``/``tamper`` rows are truthful rows.  Everything else —
#: contradictory bids (aborts), the chain's Phase II identity failures,
#: and any traced run — executes on the lane engine.
ARRAY_KINDS = {
    "chain": frozenset({"overcharge", "misbid", "slow", "shed", "accuse"}),
    "star": frozenset({"overcharge", "misbid", "slow", "shed", "accuse", "miscompute", "tamper"}),
}


def array_expressible(topology: str, deviant: str | None) -> bool:
    """Whether an untraced row can ride a stacked batch-engine call."""
    if topology == "tree":
        return False  # no batch engine for trees
    if deviant is None:
        return True
    parts = deviant.split(":")
    kinds = ARRAY_KINDS["star" if topology == "star" else "chain"]
    return len(parts) >= 2 and parts[1] in kinds


def draw_network(topology: str, m: int, rng: np.random.Generator):
    """The row's random network: ``m`` agents behind an obedient root.

    ``"star"`` and ``"tree"`` select those topologies; anything else
    (``"chain"``, ``"linear"``) draws a linear chain.
    """
    from repro.network import generators

    if topology == "star":
        return generators.random_star_network(m, rng)
    if topology == "tree":
        return generators.random_tree_network(m + 1, rng)
    return generators.random_linear_network(m, rng)


def preorder_rates(tree) -> list[float]:
    """Per-node ``w`` in preorder (the tree mechanism's node indexing)."""
    rates: list[float] = []

    def visit(node) -> None:
        rates.append(float(node.w))
        for child in node.children:
            visit(child)

    visit(tree.root)
    return rates


def agent_rates(topology: str, network) -> list[float]:
    """True rates of the strategic agents ``1 .. m`` (root excluded)."""
    if topology == "tree":
        return preorder_rates(network)[1:]
    return [float(x) for x in network.w[1:]]


def build_mechanism(
    topology: str,
    network,
    agents,
    *,
    engine: str = "scalar",
    audit_probability: float,
    rng: np.random.Generator,
    tracer: Tracer | None = None,
):
    """Construct the row's mechanism: scalar or lane (the crypto-free
    batch-engine subclass) × chain or star.  Trees have one engine, the
    scalar tree mechanism, which models the tamper-proof level: no
    audits, so no ``rng``."""
    if topology == "tree":
        from repro.mechanism.tree_mechanism import TreeMechanism

        return TreeMechanism(network, agents, tracer=tracer)
    if engine == "lane":
        from repro.mechanism import batch_run

        cls = batch_run.LaneStarMechanism if topology == "star" else batch_run.LaneChainMechanism
    else:
        from repro.mechanism import dls_lbl, star_mechanism

        cls = star_mechanism.StarMechanism if topology == "star" else dls_lbl.DLSLBLMechanism
    return cls(
        network.z,
        float(network.w[0]),
        agents,
        audit_probability=audit_probability,
        rng=rng,
        tracer=tracer,
    )


def solo_row(
    topology: str,
    m: int,
    seed: int,
    audit_probability: float,
    deviant: str | None = None,
    *,
    engine: str = "scalar",
    trace: bool = False,
) -> tuple[dict[str, Any], list[TraceEvent]]:
    """The solo recipe: ``default_rng(seed)``, draw the network, build
    the agents, run one mechanism.

    Returns the row's outcome fields and its trace events (empty unless
    ``trace``); counters land in the active registry.  ``engine="lane"``
    swaps in the crypto-free lane subclass — same protocol code,
    bitwise-equal output.
    """
    from repro.agents import TruthfulAgent
    from repro.mechanism.ledger import MECHANISM
    from repro.mechanism.population import make_deviant

    rng = np.random.default_rng(seed)
    network = draw_network(topology, m, rng)
    true_rates = agent_rates(topology, network)
    agents = [TruthfulAgent(i, t) for i, t in enumerate(true_rates, start=1)]
    if deviant is not None:
        agent = make_deviant(deviant, true_rates)
        agents[agent.index - 1] = agent
    tracer = Tracer() if trace else None
    mech = build_mechanism(
        topology,
        network,
        agents,
        engine=engine,
        audit_probability=audit_probability,
        rng=rng,
        tracer=tracer,
    )
    outcome = mech.run()
    fines = sum(e.amount for e in outcome.ledger.entries if e.creditor == MECHANISM)
    fields = {
        # TreeOutcome has no completed/aborted_phase/adjudications/audits
        # (the tree mechanism always completes); the getattr defaults
        # state exactly that, matching a completed chain/star run.
        "completed": bool(getattr(outcome, "completed", True)),
        "aborted_phase": getattr(outcome, "aborted_phase", None),
        # float() casts are exact and keep the fields JSON-serializable;
        # an aborted run has no makespan.
        "makespan": None if outcome.makespan is None else float(outcome.makespan),
        "fines_total": float(fines),
        "n_grievances": len(getattr(outcome, "adjudications", ())),
        "n_audits": len(getattr(outcome, "audits", ())),
        "mechanism_outlay": float(outcome.ledger.mechanism_outlay()),
    }
    return fields, tracer.events if tracer is not None else []


def _solo_delta(
    topology: str,
    m: int,
    seed: int,
    audit_probability: float,
    deviant: str | None,
    engine: str,
    trace: bool,
) -> tuple[dict[str, Any], list[TraceEvent], dict[str, Any]]:
    """:func:`solo_row` with its counter delta captured, unmerged.
    Module-level so it pickles into pool workers."""
    with collecting(merge=False) as registry:
        fields, events = solo_row(
            topology, m, seed, audit_probability, deviant, engine=engine, trace=trace
        )
    return fields, events, registry.snapshot()


def map_ordered(fn: Callable[..., Any], tasks: Sequence[tuple], jobs: int) -> list[Any]:
    """``[fn(*task) for task in tasks]``, on ``jobs`` worker processes
    when ``jobs > 1``; results always come back in submission order."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        # Submission order, not completion order — determinism.
        return [future.result() for future in futures]


@dataclass(frozen=True)
class RowsResult:
    """Per-row outputs of :func:`run_rows`, index-aligned with its rows.

    ``fields`` are the seven outcome fields of :func:`solo_row`;
    ``engines`` name the path each row rode (``array``, ``lane``, or
    ``scalar`` for trees); ``snapshots`` are the unmerged per-row
    counter deltas.
    """

    fields: list[dict[str, Any]]
    engines: list[str]
    events: list[list[TraceEvent]]
    snapshots: list[dict[str, Any]]


def _draw_stack(m: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(n, m+1)`` rates ``w``, ``(n, m)`` links ``z`` and ``(n, m)``
    audit draws of chain or star rows ``seeds``, drawn straight into the
    stack: per seed, the solo recipe's generator calls in its order
    (:func:`~repro.network.generators.draw_rates`, then one audit draw
    per agent), with no network object per row."""
    from repro.network.generators import draw_rates

    n = len(seeds)
    w = np.empty((n, m + 1))
    z = np.empty((n, m))
    draws = np.empty((n, m))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        w[k], z[k] = draw_rates(m, rng)
        rng.random(out=draws[k])
    return w, z, draws


def _array_rows(
    topology: str,
    m: int,
    audit_probability: float,
    seeds: Sequence[int],
    deviants: Sequence[str | None],
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """One stacked batch-engine call over array-expressible rows; the
    engine validates the drawn stack once."""
    from repro.agents.strategies import LoadSheddingAgent
    from repro.mechanism import batch_run
    from repro.mechanism.population import make_deviant

    n = len(seeds)
    w, z, draws = _draw_stack(m, seeds)

    bids = execution_rates = bill_overcharge = shed = accuse = None
    if any(spec is not None for spec in deviants):
        bids = w[:, 1:].copy()
        execution_rates = w[:, 1:].copy()
        bill_overcharge = np.zeros((n, m))
        for k, spec in enumerate(deviants):
            if spec is None:
                continue
            agent = make_deviant(spec, [float(x) for x in w[k, 1:]])
            col = agent.index - 1
            bids[k, col] = agent.choose_bid()
            execution_rates[k, col] = agent.choose_execution_rate()
            # The bill inflation is the agent's markup over a zero base.
            bill_overcharge[k, col] = agent.phase4_bill(0.0)
            if isinstance(agent, LoadSheddingAgent):
                if shed is None:
                    shed = np.full((n, m), np.nan)  # NaN: does not shed
                shed[k, col] = agent.shed_fraction
            if agent.fabricates_accusation() is not None:
                if accuse is None:
                    accuse = np.zeros((n, m), dtype=bool)
                accuse[k, col] = True

    star = topology == "star"
    run_batch = batch_run.run_star_batch if star else batch_run.run_chain_batch
    outcome = run_batch(
        w,
        z,
        bids=bids,
        execution_rates=execution_rates,
        bill_overcharge=bill_overcharge,
        shed=shed,
        accuse=accuse,
        audit_probability=audit_probability,
        audit_draws=draws,
        # Counters are per row, folded by the caller in row order.
        emit_metrics=False,
    )
    snapshots = (batch_run.star_row_snapshots if star else batch_run.chain_row_snapshots)(outcome)
    makespan = outcome.makespan.tolist()
    fines = outcome.fines_total.tolist()
    outlay = outcome.mechanism_outlay.tolist()
    grievances = outcome.grievances.tolist()
    fields = [
        {
            "completed": True,
            "aborted_phase": None,
            "makespan": makespan[k],
            "fines_total": fines[k],
            "n_grievances": grievances[k],
            "n_audits": m,
            "mechanism_outlay": outlay[k],
        }
        for k in range(n)
    ]
    return fields, snapshots


def run_rows(
    topology: str,
    m: int,
    audit_probability: float,
    seeds: Sequence[int],
    deviants: Sequence[str | None],
    *,
    trace: bool = False,
    jobs: int = 1,
    span: str | None = None,
) -> RowsResult:
    """Route, run and return rows ``(seeds[i], deviants[i])``.

    Array-expressible rows share one stacked call; the rest run
    :func:`solo_row` on the lane engine (trees: scalar), in-process or,
    with ``jobs > 1``, on a process pool.  Every row's fields, events
    and counter snapshot equal its solo run's bitwise.  With ``span``,
    the stacked call and each solo row are timed under
    ``<span>.array`` / ``<span>.lane`` / ``<span>.tree``.
    """
    n = len(seeds)
    fields: list[Any] = [None] * n
    engines = ["lane"] * n
    events: list[list[TraceEvent]] = [[] for _ in range(n)]
    snapshots: list[Any] = [None] * n

    def timed(kind: str):
        return perf_span(f"{span}.{kind}") if span is not None else nullcontext()

    array = [] if trace else [i for i in range(n) if array_expressible(topology, deviants[i])]
    if array:
        with timed("array"):
            array_fields, array_snaps = _array_rows(
                topology,
                m,
                audit_probability,
                [seeds[i] for i in array],
                [deviants[i] for i in array],
            )
        for i, row_fields, snap in zip(array, array_fields, array_snaps):
            fields[i], snapshots[i], engines[i] = row_fields, snap, "array"

    solo = [i for i in range(n) if fields[i] is None]
    if topology == "tree":
        # No batch engine for trees: an honest fallback count per row.
        if solo:
            get_registry().inc("mechanism.scalar_fallbacks", float(len(solo)))
        engine, kind = "scalar", "tree"
    else:
        engine, kind = "lane", "lane"
    tasks = [
        (topology, m, seeds[i], audit_probability, deviants[i], engine, trace) for i in solo
    ]
    if jobs > 1:
        results = map_ordered(_solo_delta, tasks, jobs)
    else:
        results = []
        for task in tasks:
            with timed(kind):
                results.append(_solo_delta(*task))
    for i, (row_fields, row_events, snap) in zip(solo, results):
        fields[i], events[i], snapshots[i], engines[i] = row_fields, row_events, snap, engine
    return RowsResult(fields=fields, engines=engines, events=events, snapshots=snapshots)
