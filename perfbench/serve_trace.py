"""Traced serve run: the per-layer breakdown, taken from outside the program.

The open-loop stream of the end-to-end run is replayed in-process,
without sockets, through ``AdmissionQueue`` + ``Dispatcher`` (+ a
``WorkerPool`` when the workload has one), at the same offered rate:

- once **untraced** (``perf`` spans off, no benchmark timers), and
- once **traced** (``REPRO_PERF=1`` spans plus the benchmark's timers
  around the admission queue's ``get``/``get_nowait``, its ``submit``,
  the dispatcher's ``run_group_rows`` calls and the pool's ``submit``).

``perf.overhead_share`` is the CPU the traced replay used over the
untraced one, minus one.  The wire codec is timed separately over the
recorded request lines and responses.  A workload without a pool also
replays ``serve_tree_pool``'s tree mix through a one-worker
``WorkerPool`` and reports the pool and tree-row metrics from that
replay, so every serve layer is measured on every serve workload.
Layers a workload does not route through (the population runner) read 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Sequence

from benchlib import median, percentile, proc_tree_cpu_s
from layer_probes import (
    PER_LAYER,
    draw_chains,
    histograms_ending,
    mean_ms,
    per_call_us,
    probe_batch_solve_us,
    probe_merge_us,
    probe_scalar_solve_us,
    probe_sign_us,
)
from serve_e2e import WARMUP_REQUESTS, verify_responses
from streams import SERVE_WORKLOADS, ServeWorkload, encode, phase_stream

from repro.serve.request import MechanismRequest

__all__ = ["run_serve_trace"]

#: Share of ``--seconds`` per replay (one untraced, one traced).
REPLAY_SHARE = 0.4

#: Groups re-executed in-process for the pool and merge probes.
PROBE_GROUPS = 200

#: Metrics taken from the pooled tree replay when a workload has no pool.
POOLED_METRICS = (
    "engine.rows.tree",
    "engine.row_us.tree",
    "pool.roundtrip_ms_p50",
    "pool.ipc_ms_p50",
    "pool.dispatches",
)


class _Recorder:
    """The benchmark's timers around public calls into each serve layer."""

    def __init__(self) -> None:
        self.submitted: dict[int, float] = {}
        self.submit_s: list[float] = []
        self.depths: list[int] = []
        self.waits_s: list[float] = []
        self.groups: list[tuple[list[MechanismRequest], float]] = []
        self.roundtrips: list[tuple[list[MechanismRequest], float]] = []

    def instrument(self, queue, pool) -> None:
        """Wrap the queue's dispatcher-side reads and the pool's submit."""
        from repro.serve.admission import SHUTDOWN

        get, get_nowait = queue.get, queue.get_nowait

        def picked(item):
            if item is not SHUTDOWN:
                self.waits_s.append(time.perf_counter() - self.submitted[item[0].request_id])
            return item

        async def timed_get():
            return picked(await get())

        queue.get = timed_get
        queue.get_nowait = lambda: picked(get_nowait())
        if pool is not None:
            submit = pool.submit

            def timed_submit(requests):
                group = list(requests)
                started = time.perf_counter()
                future = submit(group)
                future.add_done_callback(
                    lambda _f: self.roundtrips.append((group, time.perf_counter() - started))
                )
                return future

            pool.submit = timed_submit

    def patch_engine(self):
        """Time every inline ``run_group_rows`` call; returns the undo."""
        import repro.serve.dispatcher as dispatcher_module

        original = dispatcher_module.run_group_rows

        def timed(group):
            started = time.perf_counter()
            out = original(group)
            self.groups.append((list(group), time.perf_counter() - started))
            return out

        dispatcher_module.run_group_rows = timed
        return lambda: setattr(dispatcher_module, "run_group_rows", original)


async def _replay(
    workload: ServeWorkload, requests: Sequence[MechanismRequest], recorder: _Recorder | None
) -> dict[str, Any]:
    from repro.serve.admission import AdmissionError, AdmissionQueue
    from repro.serve.dispatcher import Dispatcher, FlushPolicy
    from repro.serve.pool import WorkerPool

    queue = AdmissionQueue()
    pool = WorkerPool(workload.workers) if workload.workers else None
    undo = None
    try:
        if pool is not None:
            pool.warm()
        if recorder is not None:
            recorder.instrument(queue, pool)
            undo = recorder.patch_engine()
        dispatcher = Dispatcher(queue, FlushPolicy(), pool=pool)
        dispatcher.start()
        futures = []
        rejected = 0
        cpu_start = proc_tree_cpu_s(os.getpid())
        start = time.perf_counter() + 0.005
        for i, request in enumerate(requests):
            delay = start + i / workload.rate - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            began = time.perf_counter()
            if recorder is not None:
                recorder.submitted[request.request_id] = began
            try:
                future = queue.submit(request)
            except AdmissionError:
                rejected += 1
                continue
            if recorder is not None:
                recorder.submit_s.append(time.perf_counter() - began)
                recorder.depths.append(queue.depth())
            futures.append(future)
        responses = await asyncio.gather(*futures)
        cpu = proc_tree_cpu_s(os.getpid()) - cpu_start
        queue.close()
        await dispatcher.join()
    finally:
        if undo is not None:
            undo()
        if pool is not None:
            pool.close()
    return {"responses": responses, "cpu_s": cpu, "rejected": rejected}


def _replay_once(workload, requests, traced: bool):
    """One replay with profiling on or off; returns the registry delta too."""
    from repro.obs.metrics import get_registry
    from repro.obs.perf import set_enabled

    registry = get_registry()
    registry.reset()
    set_enabled(traced)
    recorder = _Recorder() if traced else None
    try:
        result = asyncio.run(_replay(workload, requests, recorder))
    finally:
        set_enabled(True)
    return result, recorder, registry.snapshot()


def layer_metrics(
    workload: ServeWorkload,
    requests: Sequence[MechanismRequest],
    result: dict[str, Any],
    recorder: _Recorder,
    snapshot: dict[str, Any],
) -> dict[str, float]:
    """Per-layer numbers from one traced replay plus the in-process probes."""
    from repro.serve.pool import execute_group
    from repro.serve.request import MechanismRequest as Request

    responses = result["responses"]
    counters, histograms = snapshot.get("counters", {}), snapshot.get("histograms", {})
    out: dict[str, float] = {name: 0.0 for name in PER_LAYER}

    lines = encode(requests)
    out["wire.decode_us"] = per_call_us(json.loads, lines)
    out["request.from_wire_us"] = per_call_us(Request.from_wire, [json.loads(line) for line in lines])
    out["wire.encode_us"] = per_call_us(
        lambda r: json.dumps(r.to_wire(), sort_keys=True).encode(), responses
    )

    out["admission.submit_us"] = median(recorder.submit_s) * 1e6
    out["admission.wait_ms_p50"] = percentile(recorder.waits_s, 0.50) * 1e3
    out["admission.wait_ms_p99"] = percentile(recorder.waits_s, 0.99) * 1e3
    out["admission.depth_p99"] = float(percentile(recorder.depths, 0.99))
    out["admission.rejected"] = float(result["rejected"])

    ok = [r for r in responses if r.ok]
    out["dispatcher.batch_size_mean"] = sum(r.served.get("batch_size", 0) for r in ok) / max(1, len(ok))
    flushes = counters.get("serve.flushes", 0.0)
    out["dispatcher.groups_per_flush"] = counters.get("serve.flush_groups", 0.0) / max(1.0, flushes)
    flush = histograms.get("perf.serve.flush", {})
    out["dispatcher.flush_ms_p50"] = flush.get("p50", 0.0) * 1e3
    out["dispatcher.flush_ms_p99"] = flush.get("p99", 0.0) * 1e3

    engines = [r.served.get("engine") for r in ok]
    rows = {"array": engines.count("array"), "lane": engines.count("lane"), "tree": engines.count("scalar")}
    for kind in rows:
        out[f"engine.rows.{kind}"] = float(rows[kind])
        total, _ = histograms_ending(histograms, f"serve.flush.{kind}")
        out[f"engine.row_us.{kind}"] = total * 1e6 / rows[kind] if rows[kind] else 0.0

    # Groups run in-process again: engine time for pooled workloads, the
    # pool's IPC share, and real per-row snapshots for the merge probe.
    recorded = recorder.groups or recorder.roundtrips
    probe = recorded[:: max(1, len(recorded) // PROBE_GROUPS)]
    local_s, snapshots = [], []
    for group, _ in probe:
        started = time.perf_counter()
        _responses, row_snaps, _overhead = execute_group(group)
        local_s.append(time.perf_counter() - started)
        snapshots.extend(row_snaps)
    group_s = [t for _, t in recorder.groups] or local_s
    out["engine.group_ms_p50"] = percentile(group_s, 0.50) * 1e3
    if recorder.roundtrips:
        out["pool.roundtrip_ms_p50"] = percentile([t for _, t in recorder.roundtrips], 0.50) * 1e3
        out["pool.ipc_ms_p50"] = percentile([t - local for (_, t), local in zip(probe, local_s)], 0.50) * 1e3
        out["pool.dispatches"] = counters.get("serve.pool_dispatches", 0.0)
    out["metrics.merge_us_per_row"] = probe_merge_us(snapshots)

    for phase in (1, 2, 3, 4):
        out[f"batch_run.phase_{phase}_ms"] = mean_ms(histograms, f"mech_batch.phase_{phase}")
        out[f"mechanism.phase_{phase}_ms"] = mean_ms(histograms, f"mechanism.phase_{phase}")
    _, batch_calls = histograms_ending(histograms, "mech_batch")
    _, star_calls = histograms_ending(histograms, "mech_batch_star")
    out["batch_run.rows_per_call"] = rows["array"] / max(1, batch_calls + star_calls)

    out["crypto.sign_us"] = probe_sign_us(max(workload.sizes))
    out["crypto.signatures_per_run"] = counters.get("crypto.signatures_created", 0.0) / max(1, len(ok))
    out["sim.events_per_run"] = counters.get("sim.events_executed", 0.0) / max(1, len(ok))

    m = workload.sizes[0]
    w, z = draw_chains(m, [r.seed for r in requests if r.topology == "chain" and r.m == m] or [0])
    out["dlt.batch_solve_us_per_instance"] = probe_batch_solve_us(w, z)
    out["dlt.scalar_solve_us"] = probe_scalar_solve_us(w, z)
    return out


def run_serve_trace(workload: ServeWorkload, seed: int, seconds: float) -> dict[str, Any]:
    from repro.serve.engine import group_by_key
    from repro.serve.pool import execute_group

    count = max(1, int(seconds * REPLAY_SHARE * workload.rate))
    requests = phase_stream(workload, seed, "open", count)
    # Warm imports and every engine path before either replay is measured:
    # in this process first, so forked pool workers start warm too.
    warmup = phase_stream(workload, seed, "warmup", WARMUP_REQUESTS)
    for indices in group_by_key(warmup):
        execute_group([warmup[i] for i in indices])
    _replay_once(workload, warmup, traced=False)
    untraced, _, _ = _replay_once(workload, requests, traced=False)
    traced, recorder, snapshot = _replay_once(workload, requests, traced=True)

    metrics = layer_metrics(workload, requests, traced, recorder, snapshot)
    metrics["perf.overhead_share"] = traced["cpu_s"] / untraced["cpu_s"] - 1.0

    responses = {r.request_id: r.to_wire() for r in traced["responses"]}
    check = verify_responses(requests, responses)
    attempted, failed, pooled_detail = check["attempted"], check["failed"], None
    if not workload.workers:
        pooled = run_serve_trace(SERVE_WORKLOADS["serve_tree_pool"], seed, seconds)
        for name in POOLED_METRICS:
            metrics[name] = pooled["metrics"][name][0]
        attempted += pooled["attempted"]
        failed += pooled["failed"]
        pooled_detail = pooled["detail"]
    return {
        "metrics": {name: (metrics[name], unit) for name, unit in PER_LAYER.items()},
        "attempted": attempted,
        "failed": failed,
        "valid": True,
        "detail": {
            "pooled_tree_replay": pooled_detail,
            "replay": {"requests": count, "rate": workload.rate},
            "cpu_s": {"untraced": untraced["cpu_s"], "traced": traced["cpu_s"]},
            "verification": check,
            "failed_share": check["failed"] / max(1, check["attempted"]),
            "samples": {
                "admission.waits": len(recorder.waits_s),
                "engine.groups": len(recorder.groups),
                "pool.roundtrips": len(recorder.roundtrips),
            },
        },
    }
