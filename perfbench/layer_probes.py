"""Per-layer probes: the benchmark's own timers around public calls.

The traced runs read the program's existing ``perf.*`` spans and
counters where they exist, and time a layer's public entry point
directly where they do not.  Nothing here adds tracing inside the
program.  Every probe returns a median over repeats.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from benchlib import median

__all__ = [
    "PER_LAYER",
    "REPEATS",
    "draw_chains",
    "histograms_ending",
    "mean_ms",
    "per_call_us",
    "probe_batch_solve_us",
    "probe_merge_us",
    "probe_scalar_solve_us",
    "probe_sign_us",
]

#: Every per-layer metric name with its unit, in report order.
PER_LAYER = {
    "wire.decode_us": "us",
    "wire.encode_us": "us",
    "request.from_wire_us": "us",
    "admission.submit_us": "us",
    "admission.wait_ms_p50": "ms",
    "admission.wait_ms_p99": "ms",
    "admission.depth_p99": "count",
    "admission.rejected": "count",
    "dispatcher.batch_size_mean": "count",
    "dispatcher.groups_per_flush": "count",
    "dispatcher.flush_ms_p50": "ms",
    "dispatcher.flush_ms_p99": "ms",
    "engine.group_ms_p50": "ms",
    "engine.rows.array": "count",
    "engine.rows.lane": "count",
    "engine.rows.tree": "count",
    "engine.row_us.array": "us",
    "engine.row_us.lane": "us",
    "engine.row_us.tree": "us",
    "pool.roundtrip_ms_p50": "ms",
    "pool.ipc_ms_p50": "ms",
    "pool.dispatches": "count",
    "metrics.merge_us_per_row": "us",
    "batch_run.phase_1_ms": "ms",
    "batch_run.phase_2_ms": "ms",
    "batch_run.phase_3_ms": "ms",
    "batch_run.phase_4_ms": "ms",
    "batch_run.rows_per_call": "count",
    "population.lane_row_us": "us",
    "mechanism.phase_1_ms": "ms",
    "mechanism.phase_2_ms": "ms",
    "mechanism.phase_3_ms": "ms",
    "mechanism.phase_4_ms": "ms",
    "crypto.sign_us": "us",
    "crypto.signatures_per_run": "count",
    "sim.events_per_run": "count",
    "dlt.batch_solve_us_per_instance": "us",
    "dlt.scalar_solve_us": "us",
    "perf.overhead_share": "share",
}

#: Repeats per probe (the median is reported).
REPEATS = 5


def per_call_us(fn: Callable[[Any], Any], items: Sequence[Any]) -> float:
    """Median over repeats of the mean microseconds ``fn`` takes per item."""
    if not items:
        return 0.0
    rounds = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for item in items:
            fn(item)
        rounds.append((time.perf_counter() - started) * 1e6 / len(items))
    return median(rounds)


def histograms_ending(histograms: Mapping[str, Mapping[str, Any]], suffix: str) -> tuple[float, int]:
    """Total seconds and count over ``perf.*`` histograms whose span path
    ends with ``suffix`` (span paths nest by call stack, so one span can
    sit under different parents)."""
    total, count = 0.0, 0
    for name, data in histograms.items():
        if name == "perf." + suffix or (name.startswith("perf.") and name.endswith("." + suffix)):
            total += float(data.get("total", 0.0))
            count += int(data.get("count", 0))
    return total, count


def mean_ms(histograms: Mapping[str, Mapping[str, Any]], suffix: str) -> float:
    total, count = histograms_ending(histograms, suffix)
    return total * 1e3 / count if count else 0.0


def draw_chains(m: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``(w, z)`` for random chains drawn the way every recipe
    draws them (``default_rng(seed)`` then ``random_linear_network``)."""
    from repro.network.generators import random_linear_network

    w = np.empty((len(seeds), m + 1))
    z = np.empty((len(seeds), m))
    for k, seed in enumerate(seeds):
        network = random_linear_network(m, np.random.default_rng(seed))
        w[k] = network.w
        z[k] = network.z
    return w, z


def probe_batch_solve_us(w: np.ndarray, z: np.ndarray) -> float:
    """``repro.dlt.batch.solve_linear_batch``, per stacked instance."""
    from repro.dlt.batch import solve_linear_batch

    return per_call_us(lambda _: solve_linear_batch(w, z), [None]) / max(1, len(w))


def probe_scalar_solve_us(w: np.ndarray, z: np.ndarray) -> float:
    """``repro.dlt.linear.solve_linear_boundary``, per chain."""
    from repro.dlt.linear import solve_linear_boundary
    from repro.network.topology import LinearNetwork

    networks = [LinearNetwork(w[k], z[k]) for k in range(len(w))]
    return per_call_us(solve_linear_boundary, networks)


def probe_sign_us(m: int, count: int = 2000) -> float:
    """``repro.crypto.signing.sign`` on Phase I bid payloads."""
    from repro.crypto.keys import KeyPair
    from repro.crypto.signing import sign
    from repro.protocol.messages import bid_payload

    pairs = [KeyPair.generate(i, seed=b"perfbench") for i in range(m + 1)]
    items = [(pairs[k % (m + 1)], bid_payload(k % (m + 1), 1.0 + k / count)) for k in range(count)]
    return per_call_us(lambda item: sign(*item), items)


def probe_merge_us(row_snapshots: Sequence[Mapping[str, Any]]) -> float:
    """``MetricsRegistry.merge`` of one per-row snapshot."""
    from repro.obs.metrics import MetricsRegistry

    rows = [snap for snap in row_snapshots if snap]
    rounds = []
    for _ in range(REPEATS):
        registry = MetricsRegistry()
        started = time.perf_counter()
        for snap in rows:
            registry.merge(snap)
        rounds.append((time.perf_counter() - started) * 1e6 / max(1, len(rows)))
    return median(rounds)
