"""Engine-paced micro-batching: coalesce admitted requests into stacked runs.

The dispatcher is a single asyncio task draining the admission queue.
It opens a batch with the first request it gets, takes whatever else is
already admitted (up to ``max_batch``) and flushes at once — no timer.
The engine sets the pace: while one flush runs, new requests pile up in
the queue, and the next flush takes that whole backlog.  A flush
partitions its members into compatible groups (same topology/m/q) and
executes each group via :func:`repro.serve.engine.run_group_rows`, which
demultiplexes per-request summaries bitwise-equal to solo scalar runs.

One flush path, two executors.  A flush hands each group to an
executor's ``submit`` and queues itself for one merger coroutine, which
awaits the groups strictly in dispatch order:

- **Inline** (no pool): ``submit`` returns an awaitable that runs the
  group in the event loop when the merger awaits it.  The loop cannot
  read sockets while a group runs, so the backlog the next flush takes
  is exactly what arrived while the engine was busy.
- **Pooled** (a :class:`~repro.serve.pool.WorkerPool`): each group is
  shipped to a worker process and the dispatcher goes back to batching
  while it runs.

An in-flight semaphore (two flushes per worker; inline counts as one
worker) bounds the backlog between dispatcher and merger.  The
dispatcher takes a slot *before* it opens a batch, so requests that
arrive while every slot is busy join one flush when a slot frees.

The merger settles every group alike: a group that failed — the engine
raised, or ``submit`` did (a dead worker pool) — becomes structured
error responses counted under ``serve.errors``; a mis-sized return is
padded, so no caller is left hanging.  Groups return *unmerged* per-row
counter deltas, and the merger folds them in request order (flush order
across flushes, ascending request index within a flush) — the exact
per-run fold a solo loop over the admitted requests performs, so
``mechanism.*``/``ledger.*`` totals stay bitwise-equal to the scalar
recipe no matter the worker count.

The flush policy: ``max_batch`` caps one flush (``max_batch=1`` is
solo-scalar dispatch; the default only bounds how long the first request
of a very deep backlog waits for the rest).  ``max_wait_s`` is an opt-in
straggler window, off by default.  A closed-loop client cannot send its
next request before it has the answer to the last one, so every request
that could join a batch is already queued when the batch opens: a
window there only idles the engine.  It pays off only for open-loop
arrivals of many independent callers, each sending a lone request a
little apart, where a short wait turns several one-row flushes into one
stacked flush.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Sequence

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.perf import span as perf_span
from repro.serve.admission import SHUTDOWN, AdmissionQueue
from repro.serve.engine import group_by_key, run_group_rows
from repro.serve.pool import GroupResult, WorkerPool
from repro.serve.request import MechanismRequest, MechanismResponse

__all__ = ["Dispatcher", "FlushPolicy"]


@dataclass(frozen=True)
class FlushPolicy:
    """When a pending batch is flushed.

    Attributes
    ----------
    max_batch:
        Most requests in one flush; a deeper backlog is split.
    max_wait_s:
        Opt-in straggler window: when the queue runs dry before the
        batch is full, wait up to this many seconds (counted from the
        batch's first request) for more.  ``0`` flushes at once.
    """

    max_batch: int = 64
    max_wait_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if not 0 <= self.max_wait_s < float("inf"):
            raise ValueError("max_wait_s must be finite and non-negative")

    @property
    def label(self) -> str:
        return f"batch{self.max_batch}@{self.max_wait_s * 1e3:g}ms"


class _InlineExecutor:
    """The no-pool executor: one "worker", the event loop itself.

    ``submit`` defers the group — calling it returns a coroutine — so the
    group runs when the merger awaits it: inside the merger's
    ``serve.flush`` span, and after every earlier flush's callers are
    resolved.  The engine records its overhead straight into the live
    registry, so none ships back.
    """

    workers = 1

    async def submit(self, requests: Sequence[MechanismRequest]) -> GroupResult:
        # Looked up as this module's global at call time: benches patch it.
        responses, row_snaps = run_group_rows(requests)
        return responses, row_snaps, {}


class Dispatcher:
    """The micro-batching loop over one :class:`AdmissionQueue`."""

    def __init__(
        self,
        queue: AdmissionQueue,
        policy: FlushPolicy | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        self.queue = queue
        self.policy = policy or FlushPolicy()
        self.pool = pool
        self._executor = pool if pool is not None else _InlineExecutor()
        self._task: asyncio.Task[None] | None = None
        self._merger: asyncio.Task[None] | None = None
        # Flushes travel dispatcher -> merger strictly FIFO so counter
        # folds happen in dispatch order even when workers finish out of
        # order.
        self._finished: asyncio.Queue[Any] = asyncio.Queue()
        self._inflight = asyncio.Semaphore(2 * self._executor.workers)

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._task = loop.create_task(self._run())
        self._merger = loop.create_task(self._merge_loop())
        if self.pool is not None:
            get_registry().set_gauge("serve.pool_workers", float(self.pool.workers))

    async def join(self) -> None:
        """Wait for the loop to exit (after :meth:`AdmissionQueue.close`)."""
        if self._task is not None:
            await self._task
        if self._merger is not None:
            self._finished.put_nowait(None)
            await self._merger

    async def _run(self) -> None:
        while True:
            # Wait for a free slot *before* opening the batch, so
            # everything admitted while every slot is busy joins this
            # flush instead of queueing behind a one-row batch that
            # already left.
            await self._inflight.acquire()
            item = await self.queue.get()
            if item is SHUTDOWN:
                self._inflight.release()
                return
            batch, draining = await self._fill([item])
            self._flush(batch)
            if draining:
                return
            # Give the loop a turn before the next flush: callers of this
            # one get their responses written, and readers admit what
            # arrived meanwhile.
            await asyncio.sleep(0)

    async def _fill(self, batch: list[Any]) -> tuple[list[Any], bool]:
        """Grow an opened batch; returns it and whether shutdown was seen.

        The admitted backlog joins up to ``max_batch``.  When the queue
        runs dry the batch flushes at once unless the policy opts into a
        straggler window, which is counted from the batch's first
        request and never reset.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.policy.max_wait_s
        while len(batch) < self.policy.max_batch:
            try:
                item = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self.queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if item is SHUTDOWN:
                return batch, True
            batch.append(item)
        return batch, False

    def _flush(self, batch: list[Any]) -> None:
        """Submit one flush's groups and queue the flush for the merger.

        The in-flight slot was taken in ``_run``; the merger releases it.
        """
        registry = get_registry()
        registry.inc("serve.flushes")
        registry.observe("serve.batch_size", float(len(batch)))
        requests = [request for request, _future in batch]
        futures = [future for _request, future in batch]
        submitted = []
        for indices in group_by_key(requests):
            registry.inc("serve.flush_groups")
            if self.pool is not None:
                registry.inc("serve.pool_dispatches")
            group = [requests[i] for i in indices]
            submitted.append((indices, group, self._submit(group)))
        self._finished.put_nowait((futures, submitted))

    def _submit(self, group: list[MechanismRequest]) -> Awaitable[GroupResult]:
        """Hand one group to the executor; a raising ``submit`` becomes
        the group's failed future, settled by the merger like any other."""
        try:
            return self._executor.submit(group)
        except Exception as exc:
            failed = asyncio.get_running_loop().create_future()
            failed.set_exception(exc)
            return failed

    async def _merge_loop(self) -> None:
        """Settle queued flushes in dispatch order.

        Awaiting each flush's groups FIFO — not completion order — is
        what keeps the counter fold deterministic: snapshots merge
        flush-by-flush exactly as they were dispatched.
        """
        while True:
            flush = await self._finished.get()
            if flush is None:
                break
            futures, submitted = flush
            registry = get_registry()
            try:
                with perf_span("serve.flush"):
                    responses: list[MechanismResponse | None] = [None] * len(futures)
                    snapshots: list[dict[str, Any] | None] = [None] * len(futures)
                    for indices, group, pending in submitted:
                        group_responses, row_snaps = await _settle(group, pending, registry)
                        for i, response, snap in zip(indices, group_responses, row_snaps):
                            responses[i] = response
                            snapshots[i] = snap
                    _merge_and_resolve(responses, snapshots, futures, registry)
            finally:
                self._inflight.release()


async def _settle(
    group: Sequence[MechanismRequest],
    pending: Awaitable[GroupResult],
    registry: MetricsRegistry,
) -> tuple[list[MechanismResponse], list[dict[str, Any]]]:
    """One group's responses and row deltas, one per member.

    A failed group fails every member with a structured error (counted
    under ``serve.errors``); a mis-sized return is padded.  A pooled
    group's engine overhead (worker-side perf spans, tree
    scalar-fallback counts) merges here: integer counters and histograms
    only, so the merge point cannot perturb float folds.
    """
    try:
        group_responses, row_snaps, overhead = await pending
    except Exception as exc:
        registry.inc("serve.errors", float(len(group)))
        return _error_responses(group, exc), [{} for _ in group]
    if overhead:
        registry.merge(overhead)
    return _pad_group(group, group_responses, row_snaps, registry)


def _error_responses(
    group: Sequence[MechanismRequest], exc: Exception
) -> list[MechanismResponse]:
    return [
        MechanismResponse(
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            request_id=request.request_id,
        )
        for request in group
    ]


def _pad_group(
    group: Sequence[MechanismRequest],
    responses: Sequence[MechanismResponse],
    snapshots: Sequence[dict[str, Any]],
    registry: MetricsRegistry,
) -> tuple[list[MechanismResponse], list[dict[str, Any]]]:
    """Guard against a mis-sized engine return.

    ``zip(indices, responses)`` used to drop the tail silently when the
    engine came back short, leaving those callers' futures hanging
    forever.  Now every unmatched member gets a structured internal
    error (counted under ``serve.errors``), and surplus responses are
    truncated rather than mis-attributed.
    """
    n = len(responses)
    if n == len(group) and len(snapshots) == len(group):
        return list(responses), list(snapshots)
    padded = list(responses[: len(group)])
    snaps = list(snapshots[: len(group)])
    while len(padded) < len(group):
        request = group[len(padded)]
        padded.append(
            MechanismResponse(
                ok=False,
                error=(
                    f"internal error: engine returned {n} responses "
                    f"for a group of {len(group)}"
                ),
                request_id=request.request_id,
            )
        )
        registry.inc("serve.errors")
    while len(snaps) < len(group):
        snaps.append({})
    return padded, snaps


def _merge_and_resolve(
    responses: Sequence[MechanismResponse | None],
    snapshots: Sequence[dict[str, Any] | None],
    futures: Sequence["asyncio.Future[Any]"],
    registry: MetricsRegistry,
) -> None:
    """Fold row deltas in request order, then resolve caller futures."""
    for snap in snapshots:
        if snap:
            registry.merge(snap)
    served = 0
    for future, response in zip(futures, responses):
        if response is None:  # pragma: no cover - grouping covers all indices
            response = MechanismResponse(
                ok=False, error="internal error: request missed every flush group"
            )
            registry.inc("serve.errors")
        served += 1
        if not future.cancelled():
            future.set_result(response)
    registry.inc("serve.requests", float(served))
