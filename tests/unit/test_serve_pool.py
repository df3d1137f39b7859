"""Worker pool: group execution contract, lifecycle, registry hygiene."""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.obs.metrics import collecting
from repro.serve.admission import AdmissionQueue
from repro.serve.dispatcher import Dispatcher, FlushPolicy
from repro.serve.engine import solo_summary
from repro.serve.pool import WorkerPool, execute_group
from repro.serve.request import MechanismRequest


def _request(i: int, topology: str = "chain") -> MechanismRequest:
    return MechanismRequest(topology=topology, m=3, seed=i, request_id=i).validate()


class TestExecuteGroup:
    def test_returns_responses_row_snaps_and_overhead(self):
        requests = [_request(i) for i in range(3)]
        responses, row_snaps, overhead = execute_group(requests)
        assert len(responses) == 3 and len(row_snaps) == 3
        for request, response in zip(requests, responses):
            assert response.ok
            assert response.summary == solo_summary(request)
        # Per-row deltas carry the protocol counters of that row alone.
        for snap in row_snaps:
            assert snap.get("counters"), snap
        # Engine overhead (perf spans) ships separately.
        assert "histograms" in overhead

    def test_leaves_the_callers_registry_untouched(self):
        requests = [_request(i) for i in range(2)]
        with collecting() as registry:
            execute_group(requests)
        snap = registry.snapshot()
        assert snap.get("counters", {}) == {}
        assert snap.get("histograms", {}) == {}

    def test_tree_fallback_count_rides_overhead_not_rows(self):
        requests = [_request(i, topology="tree") for i in range(2)]
        _responses, row_snaps, overhead = execute_group(requests)
        assert overhead["counters"]["mechanism.scalar_fallbacks"] == 2
        for snap in row_snaps:
            assert "mechanism.scalar_fallbacks" not in snap.get("counters", {})


class TestWorkerPool:
    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            WorkerPool(0)

    def test_submit_runs_groups_in_worker_processes(self):
        async def _run():
            pool = WorkerPool(1)
            try:
                pool.warm()
                responses, row_snaps, _overhead = await pool.submit(
                    [_request(0), _request(1)]
                )
                return responses, row_snaps
            finally:
                pool.close()

        with collecting() as registry:
            responses, row_snaps = asyncio.run(_run())
        assert [r.request_id for r in responses] == [0, 1]
        assert all(r.ok for r in responses)
        assert len(row_snaps) == 2
        # Worker-side metrics never leak into this process's registry:
        # submit() ships deltas, it does not merge them.
        assert registry.snapshot().get("counters", {}) == {}

    def test_submit_after_close_raises(self):
        async def _run():
            pool = WorkerPool(1)
            pool.close()
            assert pool.closed
            with pytest.raises(RuntimeError, match="closed"):
                pool.submit([_request(0)])
            pool.close()  # idempotent

        asyncio.run(_run())


class TestPooledDispatcher:
    def test_pooled_flushes_resolve_futures_and_fold_counters(self):
        requests = [_request(i) for i in range(6)]

        async def _run():
            queue = AdmissionQueue(capacity=16)
            pool = WorkerPool(1)
            dispatcher = Dispatcher(
                queue, FlushPolicy(max_batch=3, max_wait_s=0.0), pool=pool
            )
            dispatcher.start()
            futures = [queue.submit(r) for r in requests]
            results = await asyncio.gather(*futures)
            queue.close()
            await dispatcher.join()
            pool.close()
            return results

        with collecting() as registry:
            responses = asyncio.run(_run())
        for request, response in zip(requests, responses):
            assert response.ok
            assert response.summary == solo_summary(request)
        counters = registry.snapshot()["counters"]
        assert counters["serve.requests"] == 6
        assert counters["serve.pool_dispatches"] >= 1
        # Protocol counters folded on the loop from the shipped deltas.
        assert any(name.startswith("mechanism.") for name in counters)
        assert registry.snapshot()["gauges"]["serve.pool_workers"] == 1.0


class _GatedPool:
    """A one-worker pool whose groups finish only once the test opens it."""

    workers = 1

    def __init__(self) -> None:
        self.groups: list[list[MechanismRequest]] = []
        self._pending: list[tuple[asyncio.Future, list[MechanismRequest]]] = []
        self._open = False

    def submit(self, requests):
        group = list(requests)
        self.groups.append(group)
        future = asyncio.get_running_loop().create_future()
        if self._open:
            future.set_result(execute_group(group))
        else:
            self._pending.append((future, group))
        return future

    def open(self) -> None:
        """Finish every submitted group, and each later one at once."""
        self._open = True
        for future, group in self._pending:
            future.set_result(execute_group(group))
        self._pending.clear()


async def _spin(until, limit: int = 100) -> None:
    for _ in range(limit):
        if until():
            return
        await asyncio.sleep(0)
    raise AssertionError("dispatcher made no progress")


class TestPooledBacklog:
    def test_requests_admitted_while_slots_are_busy_share_one_flush(self):
        # One worker = two in-flight slots.  Once both are taken, later
        # requests trickling in must wait together for a free slot and
        # leave as one flush, not one row each.
        pool = _GatedPool()
        requests = [_request(i) for i in range(8)]

        async def _run():
            queue = AdmissionQueue(capacity=16)
            dispatcher = Dispatcher(queue, FlushPolicy(), pool=pool)
            dispatcher.start()
            futures = []
            for i in range(2):
                futures.append(queue.submit(requests[i]))
                await _spin(lambda: len(pool.groups) == i + 1)
            for request in requests[2:]:
                futures.append(queue.submit(request))
                for _ in range(5):
                    await asyncio.sleep(0)
            assert len(pool.groups) == 2  # both slots busy: nothing left
            pool.open()
            results = await asyncio.gather(*futures)
            queue.close()
            await dispatcher.join()
            return results

        with collecting() as registry:
            responses = asyncio.run(_run())
        assert [len(group) for group in pool.groups] == [1, 1, 6]
        for request, response in zip(requests, responses):
            assert response.ok
            assert response.summary == solo_summary(request)
        assert registry.snapshot()["counters"]["serve.flushes"] == 3


class _BrokenPool:
    """A pool whose ``submit`` raises until the test mends it."""

    workers = 1

    def __init__(self) -> None:
        self.broken = True

    def submit(self, requests):
        if self.broken:
            raise RuntimeError("no worker left")
        future = asyncio.get_running_loop().create_future()
        future.set_result(execute_group(list(requests)))
        return future


class TestWorkerDeath:
    def test_raising_submit_fails_its_group_and_the_dispatcher_lives(self):
        # A submit that raises used to end the dispatcher task with its
        # in-flight slot held, so every later request hung.  Now the
        # group's callers get structured errors and serving continues.
        pool = _BrokenPool()

        async def _run():
            queue = AdmissionQueue(capacity=16)
            dispatcher = Dispatcher(queue, FlushPolicy(), pool=pool)
            dispatcher.start()
            failed = await asyncio.wait_for(
                asyncio.gather(queue.submit(_request(0)), queue.submit(_request(1))), 5
            )
            pool.broken = False
            served = await asyncio.wait_for(queue.submit(_request(2)), 5)
            queue.close()
            await dispatcher.join()
            return failed, served

        with collecting() as registry:
            failed, served = asyncio.run(_run())
        assert [r.ok for r in failed] == [False, False]
        assert [r.request_id for r in failed] == [0, 1]
        assert all("no worker left" in r.error for r in failed)
        assert served.ok and served.summary == solo_summary(_request(2))
        counters = registry.snapshot()["counters"]
        assert counters["serve.errors"] == 2
        assert counters["serve.requests"] == 3

    def test_killed_worker_is_replaced_and_later_requests_are_served(self):
        async def _run():
            queue = AdmissionQueue(capacity=16)
            before = {p.pid for p in multiprocessing.active_children()}
            pool = WorkerPool(1)
            try:
                pool.warm()
                workers = [
                    p for p in multiprocessing.active_children() if p.pid not in before
                ]
                dispatcher = Dispatcher(queue, FlushPolicy(), pool=pool)
                dispatcher.start()
                first = await asyncio.wait_for(queue.submit(_request(0)), 30)
                for process in workers:
                    os.kill(process.pid, signal.SIGKILL)
                # Let the executor notice the death before the next submit
                # (a group submitted in that window fails, by design).
                deadline = time.monotonic() + 10
                while not pool._executor._broken and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                later = [
                    await asyncio.wait_for(queue.submit(_request(i)), 10)
                    for i in range(1, 4)
                ]
                queue.close()
                await dispatcher.join()
                return first, later
            finally:
                pool.close()

        with collecting() as registry:
            first, later = asyncio.run(_run())
        for response in [first, *later]:
            assert response.ok, response.error
            assert response.summary == solo_summary(_request(response.request_id))
        assert registry.snapshot()["counters"]["serve.pool_restarts"] == 1
