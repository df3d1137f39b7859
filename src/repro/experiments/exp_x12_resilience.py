"""Experiment X12 (extension) — the crash-fault-tolerant runtime.

The paper's robustness results (Theorems 5.2 and 5.4) assume messages
arrive and processors either participate or visibly quit.  X12 stresses
the layer *underneath* those assumptions — the :mod:`repro.runtime`
resilience layer — and validates its guarantees empirically:

1. **Infrastructure scenario matrix**: every built-in infrastructure
   scenario (lossy links, duplicated/delayed/corrupted deliveries,
   mid-run crashes) completes with the expected verdict — ``tolerated``
   (absorbed by retry/backoff/dedup), ``degraded`` (graceful exclusion
   or re-allocation), or ``detected`` (signature rejection + grievance).
2. **Crash conservation sweep**: over random chains and crash points,
   the re-allocated loads still sum to the total workload, the makespan
   stays finite (>= the no-fault baseline), the ledger balances, honest
   survivors are never debited, and every crashed processor's pre-crash
   compensation is visibly forfeited.
3. **Fuzzed combinations**: a fixed-seed random batch of strategic and
   infrastructure fault mixes, gated by the same verdict checker, with
   shrink-on-failure reporting (any failure prints its minimal spec).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.harness import ExperimentResult, Table

__all__ = ["run_x12_resilience"]

_TOL = 1e-9


def _crash_conservation_table(*, seed: int) -> tuple[Table, bool]:
    from repro.network.generators import random_linear_network
    from repro.runtime import run_resilient

    table = Table(
        title="X12 — crash re-allocation conservation (random chains and crash points)",
        columns=[
            "m", "crashed", "dead", "reallocs", "sum computed",
            "makespan", "baseline", "penalty", "ledger", "survivors clean",
        ],
        notes=(
            "after every mid-run crash the survivors' re-allocated loads must still "
            "sum to the total workload; the ledger nets to zero with the crashed "
            "processor's pre-crash pay visibly forfeited; survivors are never debited"
        ),
    )
    ok = True
    cases = [
        (4, [(2, 0.5)]),
        (5, [(1, 0.25)]),
        (6, [(3, 0.75), (5, 0.4)]),
        (8, [(2, 0.3), (6, 0.6)]),
    ]
    for case_index, (m, crashes) in enumerate(cases):
        rng = np.random.default_rng([seed, 12, case_index])
        network = random_linear_network(m, rng)
        faults = [
            {"kind": "crash_exec", "target": target, "param": fraction}
            for target, fraction in crashes
        ]
        outcome = run_resilient(network.w, network.z, faults, seed=seed + case_index)
        conserved = abs(outcome.total_computed - 1.0) <= _TOL
        balanced = abs(outcome.ledger.total_balance()) <= 1e-6
        survivors = set(range(1, outcome.m + 1)) - set(outcome.dead) - set(outcome.unresponsive)
        clean = not any(
            entry.debtor == i
            for i in survivors
            for entry in outcome.ledger.entries_for(i)
        )
        forfeited = set(outcome.forfeits) == set(outcome.dead)
        finite = (
            outcome.makespan is not None
            and np.isfinite(outcome.makespan)
            and outcome.makespan >= outcome.baseline_makespan - _TOL
        )
        row_ok = (
            outcome.completed
            and conserved
            and balanced
            and clean
            and forfeited
            and finite
            and outcome.reallocations == len(crashes)
        )
        ok &= row_ok
        table.add_row(
            m,
            ",".join(f"P{t}@{f:g}" for t, f in crashes),
            ",".join(f"P{d}" for d in outcome.dead) or "-",
            outcome.reallocations,
            f"{outcome.total_computed:.9f}",
            f"{outcome.makespan:.5f}" if outcome.makespan is not None else "-",
            f"{outcome.baseline_makespan:.5f}",
            f"{outcome.makespan_penalty:+.5f}",
            "balanced" if balanced else "UNBALANCED",
            str(clean),
        )
    return table, ok


def run_x12_resilience(*, seed: int = 0, jobs: int = 1) -> ExperimentResult:
    """Experiment X12 (extension) — crash-fault-tolerant runtime matrix."""
    # Imported here, not at module level, so that loading the experiment
    # registry does not load the fault-injection package.
    from repro.faults.catalog import BUILTIN_SCENARIOS
    from repro.faults.fuzz import fuzz_scenarios
    from repro.faults.runner import run_scenario

    matrix = Table(
        title="X12 — infrastructure fault matrix (repro.runtime resilience layer)",
        columns=[
            "scenario", "faults", "verdicts", "dead", "retries",
            "reallocs", "rejected", "conserved", "verdict",
        ],
        notes=(
            "tolerated = absorbed by retry/backoff/dedup; degraded = graceful "
            "exclusion or re-allocation; detected = corrupt delivery rejected "
            "with a grievance filed"
        ),
    )
    all_ok = True
    infra = [
        s for s in BUILTIN_SCENARIOS.values() if s.layer == "infrastructure"
    ]
    for scenario in infra:
        result = run_scenario(scenario, seed=seed, jobs=jobs)
        ok = result.all_ok
        all_ok &= ok
        run0 = result.runs[0]
        verdicts = ",".join(v["verdict"] for v in run0["verdicts"]) or "-"
        matrix.add_row(
            scenario.name,
            "+".join(f.kind for f in scenario.faults),
            verdicts,
            ",".join(f"P{d}" for d in run0["dead"]) or "-",
            run0["retries"],
            run0["reallocations"],
            run0["rejections"],
            str(run0["conserved"]),
            "OK" if ok else "VIOLATION",
        )

    conservation, conservation_ok = _crash_conservation_table(seed=seed)
    all_ok &= conservation_ok

    fuzz = fuzz_scenarios(seed + 7, 10, jobs=jobs)
    fuzz_table = Table(
        title="X12 — fuzzed fault combinations (fixed seed, shrink-on-failure)",
        columns=["case", "topology", "faults", "verdict"],
        notes="random strategic/infrastructure mixes gated by the verdict checker",
    )
    for case in fuzz.cases:
        fuzz_table.add_row(
            case["scenario"]["name"],
            case["scenario"]["topology"],
            "+".join(f["kind"] for f in case["scenario"]["faults"]),
            "OK" if case["ok"] else "FAIL",
        )
    for failure in fuzz.failures:
        fuzz_table.add_row(
            failure["shrunk"]["name"], "-", "MINIMAL FAILING SPEC", str(failure["shrunk"]),
        )
    all_ok &= fuzz.all_ok

    return ExperimentResult(
        experiment_id="X12",
        description="X12 — crash-fault-tolerant runtime: lossy transport, retry, re-allocation",
        tables=[matrix, conservation, fuzz_table],
        passed=all_ok,
        summary=(
            "every infrastructure fault is tolerated, gracefully degraded, or detected; "
            "crashes re-allocate with workload conservation and balanced ledgers"
            if all_ok
            else "a resilience guarantee was violated"
        ),
    )
