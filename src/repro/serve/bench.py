"""Serve benchmark: solo-scalar dispatch vs micro-batched flush policies.

The question this section answers: given the same concurrent mixed
workload (chain + star, several sizes, deviant lanes in the mix), what
do requests-per-second and latency percentiles look like when every
request runs its own scalar mechanism (the solo baseline) versus when
the dispatcher coalesces compatible requests into stacked batch-engine
calls under each flush policy?

Method: the workload is submitted as one concurrent burst straight into
an :class:`~repro.serve.admission.AdmissionQueue` +
:class:`~repro.serve.dispatcher.Dispatcher` pair on a private event loop
— no sockets, so the numbers measure the dispatch/flush machinery, not
TCP.  Latency is submit-to-response per request; percentiles come from
the same :class:`~repro.obs.metrics.LatencyHistogram` the service's own
metrics use.  Before any timing is trusted, every policy's response
summaries are checked **bitwise** against the solo scalar recipe — a
policy row with ``bitwise_equal: false`` invalidates the whole section
(the bench refuses the timing of a wrong result, exactly like the
``mech_batch`` gate).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Sequence

from repro.obs.metrics import LatencyHistogram, collecting
from repro.serve.admission import AdmissionQueue
from repro.serve.client import mixed_workload
from repro.serve.dispatcher import Dispatcher, FlushPolicy
from repro.serve.engine import solo_summary
from repro.serve.pool import WorkerPool
from repro.serve.request import MechanismRequest

__all__ = ["DEFAULT_POLICIES", "DEFAULT_POOL_WORKERS", "benchmark_serve"]

#: Worker counts the ``serve_pool`` sweep compares.
DEFAULT_POOL_WORKERS = (1, 2, 4)

#: The flush policies the bench compares.  ``batch1`` isolates dispatch
#: overhead (no coalescing); the two windowed policies trade a bounded
#: wait for stacked-engine amortization; the last is the shipped,
#: engine-paced default.
DEFAULT_POLICIES = (
    FlushPolicy(max_batch=1, max_wait_s=0.0),
    FlushPolicy(max_batch=8, max_wait_s=0.002),
    FlushPolicy(max_batch=32, max_wait_s=0.005),
    FlushPolicy(),
)


def _percentiles(histogram: LatencyHistogram) -> dict[str, float]:
    return {
        "p50_ms": histogram.quantile(0.50) * 1e3,
        "p95_ms": histogram.quantile(0.95) * 1e3,
        "p99_ms": histogram.quantile(0.99) * 1e3,
    }


def _solo_baseline(
    requests: Sequence[MechanismRequest],
) -> tuple[dict[int, dict[str, Any]], dict[str, Any]]:
    """Every request through the scalar recipe, one at a time."""
    histogram = LatencyHistogram()
    summaries: dict[int, dict[str, Any]] = {}
    started = time.perf_counter()
    for request in requests:
        t0 = time.perf_counter()
        summaries[request.request_id] = solo_summary(request)
        histogram.observe(time.perf_counter() - t0)
    wall = time.perf_counter() - started
    row = {
        "wall_s": wall,
        "rps": len(requests) / wall if wall > 0 else 0.0,
        **_percentiles(histogram),
    }
    return summaries, row


async def _serve_burst(
    requests: Sequence[MechanismRequest],
    policy: FlushPolicy,
    *,
    workers: int = 0,
) -> tuple[dict[int, dict[str, Any]], dict[str, Any]]:
    """The whole workload as one concurrent burst through a dispatcher.

    ``workers > 0`` puts a pre-warmed :class:`WorkerPool` of that many
    processes behind the dispatcher (warm-up happens before the timer
    starts, so the numbers measure steady-state dispatch, not fork
    cost).
    """
    loop = asyncio.get_running_loop()
    queue = AdmissionQueue(capacity=max(len(requests), 1))
    pool = WorkerPool(workers) if workers > 0 else None
    if pool is not None:
        pool.warm()
    dispatcher = Dispatcher(queue, policy, pool=pool)
    dispatcher.start()
    histogram = LatencyHistogram()
    summaries: dict[int, dict[str, Any]] = {}
    batch_sizes: list[int] = []

    async def _submit(request: MechanismRequest) -> None:
        t0 = loop.time()
        response = await queue.submit(request)
        histogram.observe(loop.time() - t0)
        if response.ok:
            summaries[request.request_id] = response.summary
            batch_sizes.append(response.served.get("batch_size", 1))

    with collecting() as registry:
        started = loop.time()
        await asyncio.gather(*(_submit(request) for request in requests))
        wall = loop.time() - started
        queue.close()
        await dispatcher.join()
    if pool is not None:
        pool.close()
    flush = registry.snapshot().get("histograms", {}).get("perf.serve.flush", {})
    row = {
        "policy": policy.label,
        "max_batch": policy.max_batch,
        "max_wait_ms": policy.max_wait_s * 1e3,
        "wall_s": wall,
        "rps": len(requests) / wall if wall > 0 else 0.0,
        "mean_batch_size": sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0,
        **_percentiles(histogram),
        # Per-flush engine time: how long the first request of a flush
        # waits on the rest of it (empty when profiling is off).
        "flushes": int(flush.get("count", 0)),
        "flush_p50_ms": flush.get("p50", 0.0) * 1e3,
        "flush_p99_ms": flush.get("p99", 0.0) * 1e3,
    }
    return summaries, row


def _pool_sweep(
    *,
    count: int,
    seed: int,
    sizes: Sequence[int],
    pool_workers: Sequence[int],
) -> dict[str, Any]:
    """The ``serve_pool`` subsection: worker counts over a tree-mixed load.

    Same method as the policy sweep — one concurrent burst, submit-to-
    response latency — but with a :class:`WorkerPool` of each size
    behind the dispatcher and tree requests in the mix, so the rows
    answer "what does adding worker processes buy, and does it stay
    bitwise-clean?".
    """
    requests = mixed_workload(
        count, seed=seed, sizes=sizes, topologies=("chain", "star", "tree")
    )
    solo_summaries, solo_row = _solo_baseline(requests)
    policy = FlushPolicy()

    worker_rows = []
    all_equal = True
    for workers in pool_workers:
        summaries, row = asyncio.run(_serve_burst(requests, policy, workers=workers))
        row["workers"] = workers
        equal = summaries == solo_summaries
        row["bitwise_equal"] = bool(equal)
        all_equal = all_equal and equal
        if equal and solo_row["wall_s"] > 0 and row["wall_s"] > 0:
            row["speedup"] = solo_row["wall_s"] / row["wall_s"]
        worker_rows.append(row)

    best = min(
        (row["wall_s"] for row in worker_rows if row["bitwise_equal"]),
        default=None,
    )
    subsection: dict[str, Any] = {
        "count": count,
        "sizes": list(sizes),
        "topologies": ["chain", "star", "tree"],
        "policy": policy.label,
        "solo": solo_row,
        "workers": worker_rows,
        "bitwise_equal": bool(all_equal),
    }
    if best is not None:
        subsection["pooled_s"] = best
    return subsection


def benchmark_serve(
    *,
    count: int = 200,
    seed: int = 0,
    sizes: Sequence[int] = (4, 6),
    policies: Sequence[FlushPolicy] = DEFAULT_POLICIES,
    pool_workers: Sequence[int] = DEFAULT_POOL_WORKERS,
) -> dict[str, Any]:
    """The ``serve`` section of ``BENCH_batch.json``.

    Returns solo-baseline and per-policy rows (RPS + p50/p95/p99 each)
    plus a section-level ``bitwise_equal`` that is only true when every
    policy reproduced every solo summary exactly, and — when
    ``pool_workers`` is non-empty — a nested ``serve_pool`` subsection
    sweeping worker-process counts over a tree-including workload with
    its own bitwise gate.
    """
    requests = mixed_workload(count, seed=seed, sizes=sizes)
    solo_summaries, solo_row = _solo_baseline(requests)

    policy_rows = []
    all_equal = True
    for policy in policies:
        summaries, row = asyncio.run(_serve_burst(requests, policy))
        equal = summaries == solo_summaries
        row["bitwise_equal"] = bool(equal)
        all_equal = all_equal and equal
        if equal and solo_row["wall_s"] > 0 and row["wall_s"] > 0:
            row["speedup"] = solo_row["wall_s"] / row["wall_s"]
        policy_rows.append(row)

    best = min(
        (row["wall_s"] for row in policy_rows if row["bitwise_equal"] and row["max_batch"] > 1),
        default=None,
    )
    section: dict[str, Any] = {
        "count": count,
        "sizes": list(sizes),
        "topologies": ["chain", "star"],
        "solo": solo_row,
        "policies": policy_rows,
        "bitwise_equal": bool(all_equal),
    }
    if best is not None:
        section["batched_s"] = best
        section["speedup"] = solo_row["wall_s"] / best if best > 0 else float("inf")
    if pool_workers:
        section["serve_pool"] = _pool_sweep(
            count=count, seed=seed, sizes=sizes, pool_workers=pool_workers
        )
    return section
