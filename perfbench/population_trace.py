"""Traced population run: per-layer numbers for the population workload.

With ``REPRO_PERF=1`` the program records its own ``perf.*`` spans; this
run reads them, phase by phase, from the registry:

- phase (a), truthful stacks: ``perf.mech_batch.phase_1..4`` per call
  and rows per ``run_chain_batch`` call (``repro.mechanism.batch_run``);
- phase (b), 30%-deviant stacks: the lane rows' ``perf.mechanism`` span
  per row (``repro.mechanism.population`` lane path);
- phase (c), scalar runs: ``perf.mechanism.phase_1..4`` per run
  (``repro.mechanism.dls_lbl``), and per run the ``crypto.signatures_created``
  and ``sim.events_executed`` counters.

``repro.crypto``, ``repro.dlt`` and ``repro.obs.metrics`` are timed by
the benchmark's own probes around their public calls.
``perf.overhead_share`` times one unit of all three phases with
profiling off and on, alternating, and reports the median traced time
over the median untraced time, minus one.  Serve-layer metrics read 0:
the population runner does not route through them.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from benchlib import median
from layer_probes import (
    PER_LAYER,
    draw_chains,
    histograms_ending,
    mean_ms,
    probe_batch_solve_us,
    probe_merge_us,
    probe_scalar_solve_us,
    probe_sign_us,
)
from population_e2e import (
    DEVIANT_COUNT,
    M,
    PHASES,
    SHARES,
    SLICE_CALLS,
    TRUTHFUL_COUNT,
    phase_call,
    phase_seed,
    timed_slices,
    verify,
    warm_up,
)

__all__ = ["run_population_trace"]

#: Share of ``--seconds`` for the phase breakdown; the rest goes to the
#: on/off overhead pairs and the probes.
BREAKDOWN_SHARE = 0.5

#: Alternating untraced/traced pairs for ``perf.overhead_share``.
OVERHEAD_PAIRS = 4

#: Scalar runs in one overhead unit.
OVERHEAD_SCALAR_RUNS = 100


def _overhead_share(seed: int) -> tuple[float, dict[str, list[float]]]:
    from repro.obs.perf import set_enabled

    calls = {name: phase_call(name, seed) for name in PHASES}

    def unit() -> float:
        started = time.perf_counter()
        calls["truthful"](0)
        calls["deviant"](0)
        for k in range(OVERHEAD_SCALAR_RUNS):
            calls["scalar"](k)
        return time.perf_counter() - started

    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    try:
        # ABBA order, so a drift in machine speed hits both sides alike.
        for pair in range(OVERHEAD_PAIRS):
            order = ((False, "untraced"), (True, "traced"))
            for flag, label in order if pair % 2 == 0 else order[::-1]:
                set_enabled(flag)
                times[label].append(unit())
    finally:
        set_enabled(True)
    return median(times["traced"]) / median(times["untraced"]) - 1.0, times


def _phase_snapshot(name: str, seed: int, budget: float) -> tuple[list, dict[str, Any]]:
    from repro.obs.metrics import get_registry

    registry = get_registry()
    registry.reset()
    slices = timed_slices(budget, phase_call(name, seed), SLICE_CALLS[name])
    return [c for piece in slices for c in piece["calls"]], registry.snapshot()


def run_population_trace(seed: int, seconds: float) -> dict[str, Any]:
    from repro.mechanism.batch_run import chain_row_snapshots, run_chain_batch

    warm_up()
    overhead, overhead_times = _overhead_share(seed)

    out: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    phases: dict[str, Any] = {}
    budget = seconds * BREAKDOWN_SHARE
    for name in PHASES:
        phases[name], snap = _phase_snapshot(name, seed, budget * SHARES[name])
        histograms, counters = snap.get("histograms", {}), snap.get("counters", {})
        rows = sum(len(result.runs) for _, _, result in phases[name])
        if name == "truthful":
            for phase in (1, 2, 3, 4):
                out[f"batch_run.phase_{phase}_ms"] = mean_ms(histograms, f"mech_batch.phase_{phase}")
            _, batch_calls = histograms_ending(histograms, "mech_batch")
            out["batch_run.rows_per_call"] = rows / max(1, batch_calls)
        elif name == "deviant":
            total, lane_rows = histograms_ending(histograms, "mechanism")
            out["population.lane_row_us"] = total * 1e6 / lane_rows if lane_rows else 0.0
        else:
            for phase in (1, 2, 3, 4):
                out[f"mechanism.phase_{phase}_ms"] = mean_ms(histograms, f"mechanism.phase_{phase}")
            out["crypto.signatures_per_run"] = counters.get("crypto.signatures_created", 0.0) / rows
            out["sim.events_per_run"] = counters.get("sim.events_executed", 0.0) / rows

    seeds = [phase_seed(seed, "truthful", k) for k in range(TRUTHFUL_COUNT)]
    w, z = draw_chains(M, seeds)
    out["dlt.batch_solve_us_per_instance"] = probe_batch_solve_us(w, z)
    out["dlt.scalar_solve_us"] = probe_scalar_solve_us(w[:1000], z[:1000])
    out["crypto.sign_us"] = probe_sign_us(M)
    draws = np.random.default_rng(seed).random((DEVIANT_COUNT, M))
    outcome = run_chain_batch(w[:DEVIANT_COUNT], z[:DEVIANT_COUNT], audit_draws=draws, emit_metrics=False)
    out["metrics.merge_us_per_row"] = probe_merge_us(chain_row_snapshots(outcome))
    out["perf.overhead_share"] = overhead

    check = verify(seed, phases)
    attempted = sum(len(result.runs) for name in PHASES for _, _, result in phases[name])
    return {
        "metrics": {name: (out[name], unit) for name, unit in PER_LAYER.items()},
        "attempted": attempted,
        "failed": check["failed"],
        "valid": True,
        "detail": {
            "overhead_unit_s": overhead_times,
            "calls": {name: len(phases[name]) for name in PHASES},
            "verification": check,
            "failed_share": check["failed"] / max(1, attempted),
        },
    }
