"""Worker-process pool behind the dispatcher.

The flush of a micro-batch is CPU-bound numpy work; one event loop can
only execute flushes serially.  :class:`WorkerPool` puts ``N`` worker
*processes* behind the dispatcher: each flush group (requests sharing a
batch key) is handed to a worker over the executor's process queue, runs
there against the worker's **own** metrics registry, and ships three
picklable things back — the responses, one registry-snapshot delta *per
row* (the protocol counters that row's solo run would have produced, in
request order), and the group's engine-overhead delta (perf spans,
scalar-fallback counts).

Nothing merges in the worker.  The event loop folds the shipped deltas
in **request order** (flush order across flushes, ascending request
index within a flush), so the ``mechanism.*``/``ledger.*`` counter
totals accumulate in exactly the order a solo loop over the admitted
requests would produce — the same snapshot-and-merge discipline the
parallel experiment runner uses, enabled by the order-independent
:class:`~repro.obs.metrics.LatencyHistogram` merge for everything that
is a histogram.

Workers hold no state the protocol depends on: a request's answer is a
pure function of the request (the solo recipe), so worker count, group
assignment and completion order can never change a single byte of any
response.  The pool parity property suite
(``tests/properties/test_prop_serve_pool.py``) pins ``--workers 1`` vs
``--workers 2`` bitwise equality across every deviant kind and topology.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Sequence

from repro.obs.metrics import collecting, get_registry
from repro.serve.request import MechanismRequest, MechanismResponse

__all__ = ["GroupResult", "WorkerPool", "execute_group"]

#: What one worker ships back for one flush group:
#: ``(responses, per_row_snapshots, overhead_snapshot)``.
GroupResult = tuple[
    "list[MechanismResponse]", "list[dict[str, Any]]", "dict[str, Any]"
]


def execute_group(requests: Sequence[MechanismRequest]) -> GroupResult:
    """Run one compatible group in this process; nothing is merged here.

    Module-level so it pickles into pool workers.  The group runs inside
    a non-merging collection scope: per-row deltas come back from
    :func:`~repro.serve.engine.run_group_rows` untouched, and whatever
    the engine recorded outside the rows (perf histograms,
    ``mechanism.scalar_fallbacks`` for tree rows) is captured as the
    overhead snapshot.  The worker's root registry stays empty, so
    repeated groups never double-count.
    """
    from repro.serve.engine import run_group_rows

    with collecting(merge=False) as scope:
        responses, row_snaps = run_group_rows(list(requests))
        overhead = scope.snapshot()
    return responses, row_snaps, overhead


def _warmup(_index: int = 0) -> bool:
    """No-op task used to fork/spawn workers before timing matters."""
    return True


class WorkerPool:
    """``N`` worker processes executing flush groups for the dispatcher.

    A thin, asyncio-friendly wrapper over
    :class:`~concurrent.futures.ProcessPoolExecutor`: :meth:`submit`
    returns an awaitable future resolving to a :data:`GroupResult`.  The
    pool is deliberately dumb — ordering, merging and future resolution
    all stay on the event loop, where the metrics registry lives.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least 1 worker")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=workers
        )

    @property
    def closed(self) -> bool:
        return self._executor is None

    def warm(self) -> None:
        """Start every worker process now (first-flush latency would
        otherwise pay the fork/spawn cost; benches call this before
        timing)."""
        if self._executor is not None:
            list(self._executor.map(_warmup, range(self.workers)))

    def submit(
        self, requests: Sequence[MechanismRequest]
    ) -> "asyncio.Future[GroupResult]":
        """Hand one flush group to a worker; awaitable on the loop.

        A worker that died breaks the whole executor.  The next submit
        then replaces it (``serve.pool_restarts``) and resubmits once.
        Groups already in flight on the dead executor fail, and are not
        retried: a group that killed its worker would kill the
        replacement too.
        """
        if self._executor is None:
            raise RuntimeError("worker pool is closed")
        loop = asyncio.get_running_loop()
        try:
            return loop.run_in_executor(self._executor, execute_group, list(requests))
        except BrokenProcessPool:
            self._executor.shutdown(wait=False)
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            get_registry().inc("serve.pool_restarts")
            return loop.run_in_executor(self._executor, execute_group, list(requests))

    def close(self) -> None:
        """Shut the workers down (idempotent; waits for running groups)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
