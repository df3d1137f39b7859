"""Load-generating client for the mechanism service.

:func:`run_load` opens one connection, pipelines a deterministic mixed
workload (chain and star topologies, several sizes, a slice of
deviant requests — the mix a population of independent callers
would submit), and measures per-request latency from write to response
line.  Responses arrive tagged with ``request_id`` and may complete out
of order; the client matches them back to requests and, when asked,
verifies every summary **bitwise** against the solo scalar recipe it
can run locally (:func:`repro.serve.engine.solo_summary` — the service
has no privileged information, so the client can check the server's
arithmetic exactly).

The latency report reuses :class:`repro.obs.metrics.LatencyHistogram`,
so percentiles here and in ``python -m repro perf report`` are computed
by the same code.

Connects retry with exponential backoff under the runtime's
:class:`~repro.runtime.retry.RetryPolicy` (interpreted as wall-clock
seconds by :func:`~repro.runtime.retry.retry_async`) and every read is
deadline-bounded, so a hung or slow-starting server yields a structured
error instead of wedging the load generator.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Sequence

import numpy as np

from repro.obs.metrics import LatencyHistogram
from repro.runtime.retry import RetryExhausted, RetryPolicy, retry_async
from repro.serve.request import MechanismRequest

__all__ = [
    "CLIENT_POLICY",
    "mixed_workload",
    "request_once",
    "run_load",
    "shutdown_server",
]

#: Default connect policy: three attempts, 2s first deadline, doubling.
CLIENT_POLICY = RetryPolicy(
    max_attempts=3, base_timeout=2.0, backoff_factor=2.0, max_timeout=8.0
)

#: Default per-line read deadline (seconds); mechanism runs parked in a
#: batch window finish in milliseconds, so a minute means "hung server".
READ_TIMEOUT_S = 60.0


async def _connect(
    host: str, port: int, policy: RetryPolicy | None, *, label: str
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a connection, retrying with backoff when a policy is given.

    The backoff jitter draws from a fixed-seed stream — it only shapes
    wall-clock pacing, never any result the client reports.
    """
    if policy is None:
        return await asyncio.open_connection(host, port)
    return await retry_async(
        lambda: asyncio.open_connection(host, port),
        policy,
        np.random.default_rng(0),
        label=label,
    )

#: Deviant specs cycled through the generated workload: bid and bill
#: deviations, a false accusation, a contradiction (a Phase I abort),
#: and truthful gaps in between.
_WORKLOAD_DEVIANTS = (None, None, "1:misbid", None, "2:overcharge:1.5", None, "1:accuse", None, None, "2:contradict")

#: Deviant kinds the tree mechanism can host (tamper-proof level).
_TREE_KINDS = frozenset({"misbid", "slow"})


def mixed_workload(
    count: int,
    *,
    seed: int = 0,
    sizes: Sequence[int] = (4, 6),
    topologies: Sequence[str] = ("chain", "star"),
    deviants: bool = True,
    tenants: Sequence[str] = ("default",),
    priorities: Sequence[int] = (0,),
) -> list[MechanismRequest]:
    """A deterministic mixed request stream of length ``count``.

    Requests cycle through topology and size combinations with distinct
    seeds, so a server batching them faces realistic key diversity;
    ``deviants=True`` threads bid, bill, grievance and abort deviant
    specs through the stream at a fixed cadence.  ``tenants`` and
    ``priorities`` cycle independently of the topology cadence, spreading
    every tenant across every batch key (the admission-fairness fields
    never touch the recipe, so the bitwise verification is unaffected).
    Deviant specs a tree cannot host (anything beyond rate/speed
    deviations) fall back to truthful on tree rows.
    """
    requests = []
    combos = [(t, m) for t in topologies for m in sizes]
    for i in range(count):
        topology, m = combos[i % len(combos)]
        deviant = _WORKLOAD_DEVIANTS[i % len(_WORKLOAD_DEVIANTS)] if deviants else None
        if deviant is not None and int(deviant.split(":")[0]) > m:
            deviant = None
        if (
            deviant is not None
            and topology == "tree"
            and deviant.split(":")[1] not in _TREE_KINDS
        ):
            deviant = None
        requests.append(
            MechanismRequest(
                topology=topology,
                m=m,
                seed=seed + i,
                deviant=deviant,
                request_id=i,
                tenant=tenants[i % len(tenants)],
                priority=priorities[i % len(priorities)],
            ).validate()
        )
    return requests


async def request_once(
    host: str,
    port: int,
    request: MechanismRequest,
    *,
    policy: RetryPolicy | None = CLIENT_POLICY,
    read_timeout: float = READ_TIMEOUT_S,
) -> dict[str, Any]:
    """Send one request on a fresh connection; return the wire response."""
    reader, writer = await _connect(host, port, policy, label="request_once connect")
    try:
        writer.write(json.dumps(request.to_wire()).encode() + b"\n")
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=read_timeout)
        return json.loads(line)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def shutdown_server(
    host: str,
    port: int,
    *,
    policy: RetryPolicy | None = CLIENT_POLICY,
    read_timeout: float = READ_TIMEOUT_S,
) -> dict[str, Any]:
    """Ask a running service to drain and exit."""
    reader, writer = await _connect(host, port, policy, label="shutdown connect")
    try:
        writer.write(b'{"op": "shutdown"}\n')
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=read_timeout)
        return json.loads(line) if line else {"ok": False, "error": "connection closed"}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_load(
    host: str,
    port: int,
    requests: Sequence[MechanismRequest],
    *,
    connections: int = 4,
    verify: bool = True,
    policy: RetryPolicy | None = CLIENT_POLICY,
    read_timeout: float = READ_TIMEOUT_S,
) -> dict[str, Any]:
    """Fire ``requests`` over ``connections`` pipelined connections.

    Returns a report dict: requests/sec over the whole run, latency
    percentiles in milliseconds, per-path served counts, and — when
    ``verify`` is set — the result of checking every response summary
    bitwise against the local solo scalar recipe (``bitwise_equal`` plus
    a sample of mismatches, empty on success).

    Each connection is opened under ``policy``'s retry/backoff schedule
    and each response line must arrive within ``read_timeout`` seconds;
    a shard whose connection cannot be established (or whose reads time
    out) gives up on its remaining requests, which then show up as
    missing ``responses`` (and ``unverified``, when verifying) instead
    of hanging the run.
    """
    loop = asyncio.get_running_loop()
    histogram = LatencyHistogram()
    responses: dict[int, dict[str, Any]] = {}
    latencies: dict[int, float] = {}
    shards = [list(requests[c::connections]) for c in range(connections)]

    async def _one_connection(shard: list[MechanismRequest]) -> None:
        if not shard:
            return
        try:
            reader, writer = await _connect(host, port, policy, label="load connect")
        except (RetryExhausted, ConnectionError, OSError):
            return  # shard's requests surface as errors/unverified
        sent_at: dict[int, float] = {}

        async def _read_all() -> None:
            for _ in range(len(shard)):
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=read_timeout
                    )
                except asyncio.TimeoutError:
                    break
                if not line:
                    break
                msg = json.loads(line)
                rid = msg.get("request_id")
                now = loop.time()
                if rid in sent_at:
                    latency = now - sent_at[rid]
                    latencies[rid] = latency
                    histogram.observe(latency)
                responses[rid] = msg

        reader_task = loop.create_task(_read_all())
        try:
            for request in shard:
                sent_at[request.request_id] = loop.time()
                writer.write(json.dumps(request.to_wire()).encode() + b"\n")
                await writer.drain()
            await reader_task
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    started = loop.time()
    await asyncio.gather(*(_one_connection(shard) for shard in shards))
    elapsed = loop.time() - started

    ok = [r for r in responses.values() if r.get("ok")]
    served_engines: dict[str, int] = {}
    batch_sizes: list[int] = []
    for response in ok:
        served = response.get("served") or {}
        engine = served.get("engine", "?")
        served_engines[engine] = served_engines.get(engine, 0) + 1
        if "batch_size" in served:
            batch_sizes.append(served["batch_size"])
    tenant_ok: dict[str, int] = {}
    for request in requests:
        response = responses.get(request.request_id)
        if response is not None and response.get("ok"):
            tenant_ok[request.tenant] = tenant_ok.get(request.tenant, 0) + 1

    report: dict[str, Any] = {
        "requests": len(requests),
        "responses": len(responses),
        "ok": len(ok),
        "errors": len(responses) - len(ok),
        "connections": connections,
        "elapsed_s": elapsed,
        "rps": len(responses) / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": histogram.quantile(0.50) * 1e3,
            "p95": histogram.quantile(0.95) * 1e3,
            "p99": histogram.quantile(0.99) * 1e3,
        },
        "served_engines": served_engines,
        "tenants_ok": dict(sorted(tenant_ok.items())),
        "mean_batch_size": (sum(batch_sizes) / len(batch_sizes)) if batch_sizes else 0.0,
    }

    if verify:
        from repro.serve.engine import solo_summary

        mismatches = []
        missing = 0
        for request in requests:
            response = responses.get(request.request_id)
            if response is None or not response.get("ok"):
                missing += 1
                continue
            expected = solo_summary(request)
            if response.get("summary") != expected:
                mismatches.append(
                    {
                        "request_id": request.request_id,
                        "got": response.get("summary"),
                        "expected": expected,
                    }
                )
        report["bitwise_equal"] = not mismatches and missing == 0
        report["unverified"] = missing
        if mismatches:
            report["mismatches"] = mismatches[:5]
    return report
