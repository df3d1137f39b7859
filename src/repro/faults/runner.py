"""Deterministic parallel scenario runner.

Mirrors :mod:`repro.mechanism.population`: every run of a scenario
derives all randomness from run *identity* (``task_seed`` over the
scenario name, the run index and the base seed), per-run traces carry
only simulated time and logical ids, and
:func:`~repro.obs.tracer.merge_traces` rebases ids in submission order —
so the merged trace is byte-identical at any ``--jobs`` count.

Each run executes the faulty population *and* (when any fault activated)
a truthful baseline on the same network, then classifies every deviator:

- ``detected`` — a grievance verdict or Phase IV audit fined it;
- ``dominated`` — its utility does not exceed the truthful baseline.

A run is ``ok`` when every deviator is detected-and-fined or dominated
and no honest processor was fined — the empirical content of Theorems
5.1-5.4.  Coalitions get the X8 treatment instead: DLS-LBL is not
group-strategyproof, so a multi-deviator run is alternatively ``ok``
when the coalition is *unstable* — its joint surplus stays below the
reporting reward ``F`` a betraying member would collect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.faults.catalog import get_scenario
from repro.faults.injector import (
    FaultyAgent,
    activate_faults,
    fault_records,
    faulty_population,
)
from repro.faults.spec import FaultSpec, ScenarioSpec
from repro.mechanism.rows import agent_rates, build_mechanism, draw_network, map_ordered
from repro.obs.metrics import collecting, get_registry, merge_snapshots
from repro.obs.tracer import TraceEvent, Tracer, events_to_jsonl, merge_traces
from repro.seeding import task_seed

__all__ = ["ScenarioResult", "run_scenario", "zero_fault_differential"]

#: Utility-dominance slack, relative to the truthful baseline's scale.
GAIN_TOL = 1e-9

#: Conservation slack for the resilient runtime's load accounting.
_LOAD_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of :func:`run_scenario`.

    Attributes
    ----------
    scenario:
        The resolved spec.
    runs:
        One verdict dict per run, in index order.
    events:
        Merged trace events (``fault_injected``/``fault_detected`` plus
        the usual mechanism events); empty unless tracing was requested.
    metrics:
        Merged metrics snapshot (faulty runs and truthful baselines both
        count toward ``mechanism.runs``).
    """

    scenario: ScenarioSpec
    runs: list[dict[str, Any]]
    events: list[TraceEvent] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(r["ok"] for r in self.runs)


def _fines_against(outcome, proc: int) -> float:
    """Total grievance + audit fines levied on ``proc`` in ``outcome``,
    plus the fines that bypass the grievance court."""
    total = sum(
        v.fine_amount for v in outcome.adjudications if v.fined == proc and v.fine_amount > 0
    )
    total += sum(a.fine for a in outcome.audits if a.proc == proc and a.fine > 0)
    # Star-topology fines that bypass the grievance court: the root
    # detects contradictions itself and the meter detects abandonment.
    total += sum(
        e.amount
        for e in outcome.ledger.entries_for(proc)
        if e.debtor == proc and ("root-detected" in e.memo or "meter-detected" in e.memo)
    )
    return float(total)


@dataclass(frozen=True)
class _Run:
    """One scenario run's identity, network and activated faults."""

    scenario: ScenarioSpec
    index: int
    seed: int
    run_seed: int
    rng: np.random.Generator
    network: Any
    chosen: list[tuple[FaultSpec, int]]
    active: list[dict[str, Any]]
    tracer: Tracer | None


#: One layer's verdict on a run: the outcome, its own summary fields, and
#: ``(target, kinds, fines)`` for every fault it detected.
_Judged = tuple[Any, dict[str, Any], list[tuple[int, list[str], float]]]


def _run_scenario_once(
    scenario: ScenarioSpec,
    run_index: int,
    seed: int,
    trace: bool,
) -> tuple[dict[str, Any], list[TraceEvent], dict[str, Any]]:
    """Execute one scenario run.  Module-level so it pickles into pool
    workers; everything returned is picklable.

    The run draws its network and fault activations from its own seed
    streams, then hands them to its layer: strategic scenarios run the
    mechanism, infrastructure and byzantine ones the resilient runtime.
    """
    run_seed = task_seed(f"faults/{scenario.name}/net/{run_index}", seed)
    rng = np.random.default_rng(run_seed)
    network = draw_network(scenario.topology, scenario.m, rng)
    act_rng = np.random.default_rng(
        task_seed(f"faults/{scenario.name}/activate/{run_index}", seed)
    )
    chosen = activate_faults(scenario, act_rng)
    tracer = Tracer() if trace else None
    run = _Run(
        scenario, run_index, seed, run_seed, rng, network, chosen, fault_records(chosen), tracer
    )
    if tracer is not None:
        for fault in run.active:
            tracer.event(
                "fault_injected",
                run=run_index,
                fault_kind=fault["kind"],
                target=fault["target"],
                param=fault["param"],
                probability=fault["probability"],
                expected=fault["expected"],
                theorem=fault["theorem"],
            )

    runtime = scenario.layer in ("infrastructure", "byzantine")
    judge = _judge_runtime if runtime else _judge_mechanism
    with collecting(merge=False) as registry:
        outcome, fields, detections = judge(run)
        snapshot = registry.snapshot()
    if tracer is not None:
        for target, kinds, fines in detections:
            tracer.event("fault_detected", run=run_index, target=target, kinds=kinds, fines=fines)

    summary = {
        "scenario": scenario.name,
        "run": run_index,
        "seed": run_seed,
        "m": scenario.m,
        "topology": scenario.topology,
        "completed": outcome.completed,
        # The resilient runtime never aborts a phase.
        "aborted_phase": getattr(outcome, "aborted_phase", None),
        "makespan": outcome.makespan,
        **fields,
    }
    events = tracer.events if tracer is not None else []
    return summary, events, snapshot


def _judge_mechanism(run: _Run) -> _Judged:
    """Run the faulty population through the mechanism and, when any
    fault activated, a truthful baseline on the same network; classify
    every deviator as detected (fined) or dominated."""
    from repro.agents import TruthfulAgent

    scenario, network = run.scenario, run.network
    true_rates = agent_rates(scenario.topology, network)
    # No relaying off the chain: misreport_z is unsupported there, so the
    # injector's z_next values are never consulted.
    z_for_agents = network.z if scenario.topology == "linear" else np.zeros(scenario.m + 1)
    mech = build_mechanism(
        scenario.topology,
        network,
        faulty_population(run.chosen, true_rates, z_for_agents),
        audit_probability=scenario.audit_probability,
        rng=run.rng,
        tracer=run.tracer,
    )
    outcome = mech.run()
    baseline = None
    if run.active:
        baseline_rng = np.random.default_rng(
            task_seed(f"faults/{scenario.name}/baseline/{run.index}", run.seed)
        )
        baseline = build_mechanism(
            scenario.topology,
            network,
            [TruthfulAgent(i, t) for i, t in enumerate(true_rates, start=1)],
            audit_probability=scenario.audit_probability,
            rng=baseline_rng,
        ).run()

    deviator_targets = sorted({fault["target"] for fault in run.active})
    deviators: list[dict[str, Any]] = []
    detections = []
    joint_gain = 0.0
    all_individually_ok = True
    for target in deviator_targets:
        kinds = [f["kind"] for f in run.active if f["target"] == target]
        utility = outcome.reports[target].utility
        truthful_utility = baseline.reports[target].utility if baseline is not None else 0.0
        gain = utility - truthful_utility
        joint_gain += gain
        fines = _fines_against(outcome, target)
        detected = fines > 0
        tol = GAIN_TOL * max(1.0, abs(truthful_utility))
        dominated = gain <= tol
        ok = detected or dominated
        all_individually_ok = all_individually_ok and ok
        deviators.append(
            {
                "target": target,
                "kinds": kinds,
                "utility": utility,
                "truthful_utility": truthful_utility,
                "gain": gain,
                "detected": detected,
                "fines": fines,
                "dominated": dominated,
                "ok": ok,
            }
        )
        if detected:
            detections.append((target, kinds, fines))

    honest_fined = any(
        _fines_against(outcome, i) > 0
        for i in range(1, scenario.m + 1)
        if i not in deviator_targets
    )
    # Coalitions can have positive surplus (DLS-LBL is not
    # group-strategyproof); the paper's guarantee — measured by X8 — is
    # instability: the betrayal reward F exceeds any coalition surplus.
    coalition_unstable = len(deviators) > 1 and joint_gain < mech.fine
    fields = {
        "fine": mech.fine,
        "active": run.active,
        "deviators": deviators,
        "joint_gain": joint_gain,
        "coalition_unstable": coalition_unstable,
        "honest_fined": honest_fined,
        "ok": (all_individually_ok or coalition_unstable) and not honest_fined,
    }
    return outcome, fields, detections


#: Acceptable runtime verdicts per expected verdict: a fault expected to
#: be tolerated may legitimately degrade the run when its magnitude
#: exceeds the retry budget (e.g. more drops than attempts); a fault
#: expected to be detected must actually be detected — except when the
#: lie was ``pre-empted`` (the liar crashed before the lying moment, or
#: its would-be victim had already failed), which composition with crash
#: faults makes legitimately reachable.  ``tolerated-degraded`` is the
#: Byzantine suppression expectation: unattributable by design, so any
#: absorbed/degraded outcome is in-contract but a ``detected`` claim
#: would be a checker bug.
_VERDICT_OK = {
    "tolerated": {"tolerated", "degraded"},
    "degraded": {"degraded", "tolerated"},
    "detected": {"detected", "pre-empted"},
    "tolerated-degraded": {"tolerated", "degraded", "pre-empted"},
}


def _judge_runtime(run: _Run) -> _Judged:
    """Run the faults through the resilient runtime.

    Instead of deviator utilities, the verdict checks are the runtime's
    recovery guarantees: the session completes, computed load sums to W,
    the ledger balances, honest survivors are never fined (detected
    Byzantine liars are the only live processors allowed debit entries,
    and every one of them must carry a fine), and every injected fault
    lands on an acceptable tolerated/degraded/detected/pre-empted
    verdict (never ``failed``).
    """
    from repro.runtime.session import run_resilient

    outcome = run_resilient(
        run.network.w,
        run.network.z,
        faults=[
            {"kind": spec.kind, "target": target, "param": spec.effective_param}
            for spec, target in run.chosen
        ],
        seed=run.run_seed,
        tracer=run.tracer,
    )
    conserved = abs(outcome.total_computed - 1.0) <= _LOAD_TOL
    ledger_balanced = abs(outcome.ledger.total_balance()) <= _LOAD_TOL
    liars = set(outcome.liars)
    survivors_clean = not any(
        entry.debtor == i
        for i in range(1, run.scenario.m + 1)
        if i not in outcome.dead and i not in liars
        for entry in outcome.ledger.entries_for(i)
    )
    # Every convicted liar must actually carry an adjudication fine —
    # "correct fines on detected liars" is half the Byzantine contract.
    liars_fined = all(outcome.fines.get(i, 0.0) > 0 for i in liars)
    checks = [
        {**verdict, "expected": fault["expected"],
         "ok": verdict["verdict"] in _VERDICT_OK.get(fault["expected"], set())}
        for fault, verdict in zip(run.active, outcome.verdicts)
    ]
    detections = [
        (v["target"], [v["kind"]], outcome.fines.get(v["target"], 0.0))
        for v in outcome.verdicts
        if v["verdict"] == "detected"
    ]
    fields = {
        "baseline_makespan": outcome.baseline_makespan,
        "makespan_penalty": outcome.makespan_penalty,
        "active": run.active,
        "verdicts": checks,
        "dead": list(outcome.dead),
        "unresponsive": list(outcome.unresponsive),
        "retries": outcome.retries,
        "crashes": outcome.crashes,
        "reallocations": outcome.reallocations,
        "rejections": outcome.rejections,
        "forfeits": {str(k): v for k, v in outcome.forfeits.items()},
        "total_computed": outcome.total_computed,
        "conserved": conserved,
        "ledger_balanced": ledger_balanced,
        "survivors_clean": survivors_clean,
        "liars": list(outcome.liars),
        "excluded": list(outcome.excluded),
        "fines": {str(k): v for k, v in sorted(outcome.fines.items())},
        "liars_fined": liars_fined,
        # A fine against a live processor that was *not* convicted of a
        # Byzantine lie would be a bug (crashed processors legitimately
        # forfeit; convicted liars legitimately pay F).
        "honest_fined": not survivors_clean,
        "ok": (
            outcome.completed
            and conserved
            and ledger_balanced
            and survivors_clean
            and liars_fined
            and all(c["ok"] for c in checks)
        ),
    }
    return outcome, fields, detections


def run_scenario(
    scenario: ScenarioSpec | str,
    *,
    seed: int = 0,
    jobs: int = 1,
    trace: bool = False,
    runs: int | None = None,
) -> ScenarioResult:
    """Run every instance of ``scenario`` (a spec or a catalog name).

    Run ``i`` derives its network, activation and audit randomness from
    ``task_seed`` over ``(scenario.name, i, seed)``, so results and the
    merged trace are functions of ``(scenario, seed)`` only — ``jobs``
    changes wall-clock, never output.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    count = runs if runs is not None else scenario.runs
    if count < 1:
        raise ValueError("runs must be at least 1")
    tasks = [(scenario, i, seed, trace) for i in range(count)]
    outcomes = map_ordered(_run_scenario_once, tasks, jobs)
    # Each run captured its delta unmerged, in-process or in a worker;
    # fold them in run order, whatever the job count.
    registry = get_registry()
    for _summary, _events, snapshot in outcomes:
        registry.merge(snapshot)
    summaries = [summary for summary, _events, _snapshot in outcomes]
    events = merge_traces([events for _summary, events, _snapshot in outcomes])
    metrics = merge_snapshots([snapshot for _summary, _events, snapshot in outcomes])
    return ScenarioResult(scenario=scenario, runs=summaries, events=events, metrics=metrics)


def zero_fault_differential(
    m: int = 4,
    *,
    seed: int = 0,
    audit_probability: float = 1.0,
) -> dict[str, Any]:
    """Differential check: a :class:`FaultyAgent` population with *no*
    active faults must be bit-identical to the honest path.

    Runs the mechanism twice on the same network and seed — once with
    empty-fault :class:`FaultyAgent`\\ s, once with plain
    ``TruthfulAgent``\\ s — and compares every outcome array, the agent
    reports, the ledger entries, and the full JSONL traces byte for
    byte.
    """
    from repro.agents import TruthfulAgent
    from repro.mechanism.dls_lbl import DLSLBLMechanism
    from repro.network.generators import random_linear_network

    run_seed = task_seed("faults/differential", seed)
    network = random_linear_network(m, np.random.default_rng(run_seed))
    true_rates = [float(x) for x in network.w[1:]]

    def execute(agents):
        tracer = Tracer()
        mech = DLSLBLMechanism(
            network.z,
            float(network.w[0]),
            agents,
            audit_probability=audit_probability,
            rng=np.random.default_rng(run_seed + 1),
            tracer=tracer,
        )
        return mech.run(), tracer

    faulty_outcome, faulty_tracer = execute(
        [FaultyAgent(i, t) for i, t in enumerate(true_rates, start=1)]
    )
    honest_outcome, honest_tracer = execute(
        [TruthfulAgent(i, t) for i, t in enumerate(true_rates, start=1)]
    )

    arrays_equal = all(
        np.array_equal(getattr(faulty_outcome, name), getattr(honest_outcome, name))
        for name in ("bids", "w_bar", "assigned", "computed", "actual_rates")
    )
    reports_equal = faulty_outcome.reports == honest_outcome.reports
    ledger_equal = list(faulty_outcome.ledger.entries) == list(honest_outcome.ledger.entries)
    traces_equal = events_to_jsonl(faulty_tracer.events) == events_to_jsonl(honest_tracer.events)
    return {
        "arrays_equal": arrays_equal,
        "reports_equal": reports_equal,
        "ledger_equal": ledger_equal,
        "traces_equal": traces_equal,
        "identical": arrays_equal and reports_equal and ledger_equal and traces_equal,
    }
