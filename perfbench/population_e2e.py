"""End-to-end population workload: ``run_population`` in-process, m = 8.

Three timed phases share ``--seconds``, interleaved over ``ROUNDS``
rounds.  Each phase runs in slices, and each slice is bracketed by the
calibration kernel (:class:`benchlib.SpeedGauge`), so its time is in
reference seconds.  Every metric is the median of its per-round values,
except ``latency_p95_ms``, the median over scalar slices of each slice's
p95 (the detail record's pooled p95/p99 pool all rounds, so that ten
samples lie beyond the p99):

(a) truthful populations of ``TRUTHFUL_COUNT`` runs with
    ``use_batch=True`` (the stacked array path), repeated with fresh
    seeds: ``truthful_runs_per_s``.
(b) 30%-deviant populations of ``DEVIANT_COUNT`` runs rotating all
    eight deviant kinds with ``use_batch=True`` (array rows plus masked
    lane rows): ``deviant_runs_per_s``.
(c) single scalar runs (``use_batch=False``, count 1, the same 30%
    deviant cadence): the crypto + event-simulator reference.  Each call
    is one sample of ``latency_p50_ms``/``latency_p95_ms``;
    ``scalar_runs_per_s`` is runs over phase time, and this process's CPU
    per run is ``server_cpu_ms_per_req``.

``throughput_rps`` is the rate of a fixed mix: one truthful stack, one
deviant stack and ``SLICE_CALLS["scalar"]`` scalar runs, timed at the
three phases' rates.
``setup_s`` is a fresh interpreter importing the population runner and
finishing one small warm-up of each phase, timed three times (median
reported).

After the clock every phase (c) run is compared bitwise with the batch
engine's answer for the same seed and spec, and the first
``REFERENCE_ROWS`` rows of every phase (a)/(b) call with a scalar
``run_population`` over the same seed and specs.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from benchlib import SpeedGauge, median, percentile, percentile_report, seed_block, timed_setup

__all__ = [
    "DEVIANT_SPECS",
    "M",
    "compare_rows",
    "deviant_specs",
    "phase_call",
    "phase_seed",
    "run_population_e2e",
    "timed_slices",
    "verify",
    "warm_up",
]

M = 8
TRUTHFUL_COUNT = 4096
DEVIANT_COUNT = 1024
REFERENCE_ROWS = 8

#: Every deviant kind, on varied agents; rotated through the deviant rows.
DEVIANT_SPECS = (
    "2:shed", "3:overcharge", "4:misbid", "5:slow",
    "2:contradict", "3:miscompute", "4:tamper", "5:accuse",
)

#: Shares of ``--seconds`` per phase, split over ``ROUNDS`` rounds.
SHARES = {"truthful": 0.25, "deviant": 0.25, "scalar": 0.5}
PHASES = tuple(SHARES)
ROUNDS = 4

#: Calls per calibrated slice: each slice takes ~0.1-0.3 s.
SLICE_CALLS = {"truthful": 1, "deviant": 1, "scalar": 40}

PHASE_BLOCK = {"warmup": 0, "truthful": 1, "deviant": 2, "scalar": 3}

SETUP_REPEATS = 3

_WARMUP = (
    "from repro.mechanism.population import run_population\n"
    "specs = {specs!r}\n"
    "run_population({m}, 64, seed=0, use_batch=True)\n"
    "run_population({m}, 16, seed=0, deviants=[specs[i % 8] if i % 2 else None for i in range(16)], use_batch=True)\n"
    "for i in range(4):\n"
    "    run_population({m}, 1, seed=i, deviant=specs[i], use_batch=False)\n"
).format(m=M, specs=DEVIANT_SPECS)


def phase_seed(seed: int, phase: str, k: int) -> int:
    return seed_block(seed, PHASE_BLOCK[phase]) + k


def deviant_specs(count: int, offset: int = 0) -> list[str | None]:
    """30% deviant rows (3 of every 10), kinds in rotation."""
    specs: list[str | None] = []
    for i in range(offset, offset + count):
        block, slot = divmod(i, 10)
        if slot in (2, 5, 8):
            specs.append(DEVIANT_SPECS[(3 * block + (2, 5, 8).index(slot)) % len(DEVIANT_SPECS)])
        else:
            specs.append(None)
    return specs


def compare_rows(got: Sequence[dict[str, Any]], expected: Sequence[dict[str, Any]]) -> int:
    """Rows that differ in any summary field (a missing row differs)."""
    bad = abs(len(got) - len(expected))
    for a, b in zip(got, expected):
        if a != b:
            bad += 1
    return bad


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh interpreter -> imports -> one small warm-up, timed: wall
    seconds and reference seconds of each repeat."""
    wall, reference = [], []
    for _ in range(SETUP_REPEATS):
        seconds, slowness = timed_setup(_WARMUP)
        wall.append(seconds)
        reference.append(seconds / slowness)
    return wall, reference


def phase_call(name: str, seed: int):
    """``call(k)`` running the ``k``-th population call of one phase."""
    from repro.mechanism.population import run_population

    if name == "truthful":
        return lambda k: run_population(
            M, TRUTHFUL_COUNT, seed=phase_seed(seed, name, k), use_batch=True
        )
    if name == "deviant":
        specs = deviant_specs(DEVIANT_COUNT)
        return lambda k: run_population(
            M, DEVIANT_COUNT, seed=phase_seed(seed, name, k), deviants=specs, use_batch=True
        )
    return lambda k: run_population(
        M, 1, seed=phase_seed(seed, name, k), deviant=deviant_specs(1, k)[0], use_batch=False
    )


def timed_slices(
    budget: float, call, per_slice: int, first: int = 0, gauge: SpeedGauge | None = None
) -> list[dict[str, Any]]:
    """Call ``call(k)`` for k = first, first + 1, ... in slices of
    ``per_slice`` calls until ``budget`` wall seconds pass (one slice at
    least).  Each slice holds its ``(k, seconds, result)`` calls, its
    process CPU seconds and the machine's slowness over it (1.0 without
    a gauge)."""
    slices: list[dict[str, Any]] = []
    phase_start = time.perf_counter()
    k = first
    while not slices or time.perf_counter() - phase_start < budget:
        calls = []
        cpu_start = time.process_time()
        for _ in range(per_slice):
            started = time.perf_counter()
            out = call(k)
            calls.append((k, time.perf_counter() - started, out))
            k += 1
        cpu = time.process_time() - cpu_start
        slowness = gauge.mark() if gauge is not None else 1.0
        cpu_slowness = gauge.cpu_slowness if gauge is not None else 1.0
        slices.append({"calls": calls, "cpu_s": cpu, "slowness": slowness, "cpu_slowness": cpu_slowness})
    return slices


def run_phases(seed: int, seconds: float, gauge: SpeedGauge) -> dict[str, Any]:
    """``ROUNDS`` rounds of the three phases.

    Returns every phase's calls (``phases[name]``) and, per round, each
    phase's slices (``phases["rounds"]``).  Interleaving spreads each
    phase over the whole run.
    """
    phases: dict[str, Any] = {name: [] for name in PHASES}
    phases["rounds"] = []
    calls = {name: phase_call(name, seed) for name in PHASES}
    gauge.mark()
    for _ in range(ROUNDS):
        round_ = {}
        for name in PHASES:
            budget = seconds * SHARES[name] / ROUNDS
            round_[name] = timed_slices(
                budget, calls[name], SLICE_CALLS[name], first=len(phases[name]), gauge=gauge
            )
            phases[name].extend(c for piece in round_[name] for c in piece["calls"])
        phases["rounds"].append(round_)
    return phases


def verify(seed: int, phases: dict[str, Any]) -> dict[str, int]:
    """Bitwise checks after the clock; one failed operation per bad row."""
    from repro.mechanism.population import run_population

    failed = checked = 0
    for k, _, result in phases.get("truthful", ()):
        reference = run_population(M, REFERENCE_ROWS, seed=phase_seed(seed, "truthful", k))
        failed += compare_rows(result.runs[:REFERENCE_ROWS], reference.runs)
        checked += REFERENCE_ROWS
    for k, _, result in phases.get("deviant", ()):
        reference = run_population(
            M, REFERENCE_ROWS, seed=phase_seed(seed, "deviant", k), deviants=deviant_specs(REFERENCE_ROWS)
        )
        failed += compare_rows(result.runs[:REFERENCE_ROWS], reference.runs)
        checked += REFERENCE_ROWS
    for k, _, result in phases.get("scalar", ()):
        batch = run_population(
            M, 1, seed=phase_seed(seed, "scalar", k), deviant=deviant_specs(1, k)[0], use_batch=True
        )
        failed += compare_rows(result.runs, batch.runs)
        checked += 1
    return {"failed": failed, "checked": checked}


def warm_up() -> None:
    """The set-up warm-up, in this process (imports and first calls)."""
    exec(compile(_WARMUP, "<warmup>", "exec"), {})


def _round_metrics(round_: dict[str, list[dict[str, Any]]]) -> dict[str, Any]:
    """Rates, scalar latencies and CPU of one round, in reference seconds."""
    runs = {name: sum(len(out.runs) for s in round_[name] for _, _, out in s["calls"]) for name in PHASES}
    ref_s = {
        name: sum(sum(t for _, t, _ in s["calls"]) / s["slowness"] for s in round_[name])
        for name in PHASES
    }
    slice_ms = [[t * 1e3 / s["slowness"] for _, t, _ in s["calls"]] for s in round_["scalar"]]
    scalar_ms = [ms for piece in slice_ms for ms in piece]
    scalar_cpu_s = sum(s["cpu_s"] / s["cpu_slowness"] for s in round_["scalar"])
    return {
        "latency": percentile_report(scalar_ms),
        "latency_ms": scalar_ms,
        "slice_p95_ms": [percentile(piece, 0.95) for piece in slice_ms],
        "cpu_ms": scalar_cpu_s * 1e3 / runs["scalar"],
        **{name: runs[name] / ref_s[name] for name in PHASES},
    }


#: Runs of each phase in the fixed mix ``throughput_rps`` is the rate of.
_MIX = {"truthful": TRUTHFUL_COUNT, "deviant": DEVIANT_COUNT, "scalar": SLICE_CALLS["scalar"]}


def _mix_rate(rates: dict[str, float]) -> float:
    """Runs per second of the fixed mix, from each phase's rate."""
    return sum(_MIX.values()) / sum(_MIX[name] / rates[name] for name in PHASES)


def run_population_e2e(seed: int, seconds: float) -> dict[str, Any]:
    setups_wall, setups = measure_setup()
    gauge = SpeedGauge()
    warm_up()
    phases = run_phases(seed, seconds, gauge)
    check = verify(seed, phases)

    # Each metric is the median of its per-round values: a slow spell of
    # the machine during one round moves one value, not the result.
    rounds = [_round_metrics(round_) for round_ in phases["rounds"]]
    # The gated tail is the median over slices of each slice's p95: a
    # slow spell that the slice's calibration misses lifts one slice's
    # tail, not the metric.  The pooled p95/p99 stay in the detail record.
    slice_p95 = [p for r in rounds for p in r.pop("slice_p95_ms")]
    pooled = percentile_report([ms for r in rounds for ms in r.pop("latency_ms")])
    warnings = []
    if not pooled["p99_trusted"]:
        warnings.append(f"only {pooled['n']} scalar runs; p99 untrusted")
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_rps": (_mix_rate({name: median(r[name] for r in rounds) for name in PHASES}), "1/s"),
        "latency_p50_ms": (median(r["latency"]["p50"] for r in rounds), "ms"),
        "latency_p95_ms": (median(slice_p95), "ms"),
        "server_cpu_ms_per_req": (median(r["cpu_ms"] for r in rounds), "ms"),
        "truthful_runs_per_s": (median(r["truthful"] for r in rounds), "1/s"),
        "deviant_runs_per_s": (median(r["deviant"] for r in rounds), "1/s"),
        "scalar_runs_per_s": (median(r["scalar"] for r in rounds), "1/s"),
    }
    attempted = sum(len(result.runs) for name in PHASES for _, _, result in phases[name])
    detail = {
        "setups_s": {"wall": setups_wall, "reference": setups},
        "slowness": gauge.report(),
        "latency_ms": pooled,
        "rounds": rounds,
        "calls": {name: len(phases[name]) for name in PHASES},
        "verification": check,
        "failed_share": check["failed"] / attempted,
        "warnings": warnings,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": check["failed"],
        "valid": True,
        "detail": detail,
    }
