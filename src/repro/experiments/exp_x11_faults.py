"""Experiment X11 (extension) — the fault-catalog scenario matrix.

Sweeps every built-in adversarial scenario (:mod:`repro.faults.catalog`)
and empirically re-validates the Theorem 5.1-5.4 guarantee across the
whole deviation catalog: every injected protocol deviation is either
*detected and fined* or *utility-dominated* by truthful play (coalitions
alternatively: unstable, surplus below the betrayal reward ``F``), and
no honest processor is ever fined.  The zero-fault scenario is also
checked *differentially* — an empty-fault injector population must be
bit-identical to the honest mechanism path (arrays, reports, ledger and
trace).
"""

from __future__ import annotations

from repro.experiments.harness import ExperimentResult, Table

__all__ = ["run_x11_faults"]


def run_x11_faults(*, seed: int = 0, jobs: int = 1) -> ExperimentResult:
    """Experiment X11 (extension) — the fault-catalog scenario matrix."""
    # Imported here, not at module level, so that loading the experiment
    # registry does not load the fault-injection package.
    from repro.faults.catalog import BUILTIN_SCENARIOS
    from repro.faults.runner import run_scenario, zero_fault_differential

    table = Table(
        title="X11 — fault-injection scenario matrix (Thm 5.1-5.4 across the catalog)",
        columns=["scenario", "runs", "injected", "detected", "dominated", "honest fined", "verdict"],
        notes=(
            "every injected deviation must be detected-and-fined or utility-dominated "
            "(coalitions: unstable, joint surplus < F); honest processors are never fined"
        ),
    )
    all_ok = True
    for name, scenario in BUILTIN_SCENARIOS.items():
        if scenario.layer != "strategic":
            continue  # infrastructure faults are X12's matrix
        result = run_scenario(scenario, seed=seed, jobs=jobs)
        injected = sum(len(r["active"]) for r in result.runs)
        detected = sum(1 for r in result.runs for d in r["deviators"] if d["detected"])
        dominated = sum(1 for r in result.runs for d in r["deviators"] if d["dominated"])
        honest_fined = any(r["honest_fined"] for r in result.runs)
        ok = result.all_ok
        all_ok &= ok
        table.add_row(
            name,
            len(result.runs),
            injected,
            detected,
            dominated,
            str(honest_fined),
            "OK" if ok else "VIOLATION",
        )

    diff = zero_fault_differential(seed=seed)
    differential_table = Table(
        title="X11 — zero-fault differential (empty injector vs honest path)",
        columns=["comparison", "identical"],
    )
    for key in ("arrays_equal", "reports_equal", "ledger_equal", "traces_equal"):
        differential_table.add_row(key, str(diff[key]))
    all_ok &= diff["identical"]

    return ExperimentResult(
        experiment_id="X11",
        description="X11 — declarative fault injection re-validates Thm 5.1-5.4",
        tables=[table, differential_table],
        passed=all_ok,
        summary=(
            "every catalogued deviation is detected-and-fined or dominated; "
            "zero-fault path bit-identical to honest run"
            if all_ok
            else "a scenario violated the strategyproofness guarantee"
        ),
    )
