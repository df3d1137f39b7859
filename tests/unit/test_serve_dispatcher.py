"""Dispatcher: flush policies, batch windows, metrics, drain."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.metrics import collecting
from repro.serve.admission import AdmissionQueue
from repro.serve.dispatcher import Dispatcher, FlushPolicy
from repro.serve.request import MechanismRequest


def _request(i: int, m: int = 3) -> MechanismRequest:
    return MechanismRequest(m=m, seed=i, request_id=i)


class TestFlushPolicy:
    def test_defaults(self):
        policy = FlushPolicy()
        assert policy.max_batch == 64
        assert policy.max_wait_s == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_wait_s": -0.1},
            # A non-finite straggler window would hold a lone request forever.
            {"max_wait_s": float("nan")},
            {"max_wait_s": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FlushPolicy(**kwargs)

    def test_cli_rejects_non_finite_wait(self, capsys, monkeypatch):
        import repro.serve
        from repro.cli import main

        def never(*_args, **_kwargs):
            raise AssertionError("the service must not start")

        monkeypatch.setattr(repro.serve, "MechanismService", never)
        assert main(["serve", "start", "--max-wait-ms", "nan"]) == 2
        assert "finite" in capsys.readouterr().out

    def test_label(self):
        assert FlushPolicy(max_batch=8, max_wait_s=0.002).label == "batch8@2ms"
        assert FlushPolicy(max_batch=1, max_wait_s=0.0).label == "batch1@0ms"


def _serve_burst(requests, policy, *, pre_close=False):
    async def _run():
        queue = AdmissionQueue(capacity=len(requests) + 1)
        dispatcher = Dispatcher(queue, policy)
        futures = [queue.submit(r) for r in requests]
        if pre_close:
            queue.close()
            dispatcher.start()
            await dispatcher.join()
            results = [f.result() for f in futures]
        else:
            dispatcher.start()
            results = await asyncio.gather(*futures)
            queue.close()
            await dispatcher.join()
        return results

    return asyncio.run(_run())


@pytest.fixture
def timers(monkeypatch):
    """Every straggler-window wait the dispatcher starts."""
    calls = []
    real_wait_for = asyncio.wait_for

    def counting_wait_for(*args, **kwargs):
        calls.append(args)
        return real_wait_for(*args, **kwargs)

    monkeypatch.setattr(asyncio, "wait_for", counting_wait_for)
    return calls


class TestEnginePaced:
    def test_default_policy_serves_admitted_burst_in_one_flush(self, timers):
        # Everything admitted before the dispatcher starts is one flush
        # under the default policy, and no straggler timer ever runs.
        n = 12
        assert n <= FlushPolicy().max_batch
        requests = [_request(i) for i in range(n)]
        with collecting() as registry:
            responses = _serve_burst(requests, FlushPolicy())
        snap = registry.snapshot()
        assert snap["counters"]["serve.flushes"] == 1
        batch_hist = snap["histograms"]["serve.batch_size"]
        assert batch_hist["count"] == 1
        assert batch_hist["total"] == float(n)
        assert all(r.ok and r.served["batch_size"] == n for r in responses)
        assert timers == []

    def test_backlog_built_during_a_flush_is_the_next_flush(self, monkeypatch, timers):
        # Inline mode: requests admitted while the engine runs a flush
        # all join the next one, with no window to wait out.
        import repro.serve.dispatcher as dispatcher_mod

        real_run_group_rows = dispatcher_mod.run_group_rows
        queues, late = [], []

        def run_and_admit(requests):
            if not late:
                late.extend(queues[0].submit(_request(i)) for i in range(1, 6))
            return real_run_group_rows(requests)

        monkeypatch.setattr(dispatcher_mod, "run_group_rows", run_and_admit)

        async def _run():
            queues.append(AdmissionQueue(capacity=16))
            dispatcher = Dispatcher(queues[0], FlushPolicy())
            dispatcher.start()
            first = await queues[0].submit(_request(0))
            rest = await asyncio.gather(*late)
            queues[0].close()
            await dispatcher.join()
            return first, rest

        with collecting() as registry:
            first, rest = asyncio.run(_run())
        assert first.served["batch_size"] == 1
        assert [r.served["batch_size"] for r in rest] == [5] * 5
        assert registry.snapshot()["counters"]["serve.flushes"] == 2
        assert timers == []


    def test_callers_resume_between_flushes_of_a_deep_backlog(self, monkeypatch):
        # A backlog deeper than max_batch is split; the loop gets a turn
        # after each flush, so the first flush's callers are answered
        # before the second flush runs, not after the whole backlog.
        import repro.serve.dispatcher as dispatcher_mod

        real_run_group_rows = dispatcher_mod.run_group_rows
        answered: list[int] = []
        answered_at_flush: list[list[int]] = []

        def recording_run_group_rows(requests):
            answered_at_flush.append(list(answered))
            return real_run_group_rows(requests)

        monkeypatch.setattr(dispatcher_mod, "run_group_rows", recording_run_group_rows)

        async def _run():
            queue = AdmissionQueue(capacity=16)
            dispatcher = Dispatcher(queue, FlushPolicy(max_batch=4))

            async def _caller(i):
                await queue.submit(_request(i))
                answered.append(i)

            callers = [asyncio.ensure_future(_caller(i)) for i in range(8)]
            await asyncio.sleep(0)  # every caller admitted
            dispatcher.start()
            await asyncio.gather(*callers)
            queue.close()
            await dispatcher.join()

        asyncio.run(_run())
        assert answered_at_flush == [[], [0, 1, 2, 3]]

    def test_each_flush_is_resolved_before_the_next_one_runs(self, monkeypatch):
        # Inline mode runs groups in the merger, one flush at a time:
        # when the engine is entered for flush N+1, every caller of
        # flush N already holds its response, and no later caller does.
        import repro.serve.dispatcher as dispatcher_mod

        real_run_group_rows = dispatcher_mod.run_group_rows
        futures = {}
        entries: list[tuple[int, set[int]]] = []

        def recording_run_group_rows(requests):
            first = min(r.request_id for r in requests)
            entries.append((first, {i for i, f in futures.items() if f.done()}))
            return real_run_group_rows(requests)

        monkeypatch.setattr(dispatcher_mod, "run_group_rows", recording_run_group_rows)

        async def _run():
            queue = AdmissionQueue(capacity=16)
            dispatcher = Dispatcher(queue, FlushPolicy(max_batch=4))
            for i in range(10):
                # Two batch keys: every full flush runs two engine groups.
                futures[i] = queue.submit(_request(i, m=3 + i % 2))
            dispatcher.start()
            await asyncio.gather(*futures.values())
            queue.close()
            await dispatcher.join()

        asyncio.run(_run())
        assert len(entries) == 6
        for first, done in entries:
            flush_start = first - first % 4
            assert done == set(range(flush_start))


class TestBatching:
    def test_max_batch_caps_flush_size(self):
        # 10 requests pre-queued, max_batch 4: flushes of 4, 4, 2.
        requests = [_request(i) for i in range(10)]
        with collecting() as registry:
            responses = _serve_burst(requests, FlushPolicy(max_batch=4, max_wait_s=0.0))
        sizes = sorted(r.served["batch_size"] for r in responses)
        assert sizes == [2, 2, 4, 4, 4, 4, 4, 4, 4, 4]
        counters = registry.snapshot()["counters"]
        assert counters["serve.flushes"] == 3
        assert counters["serve.requests"] == 10
        batch_hist = registry.snapshot()["histograms"]["serve.batch_size"]
        assert batch_hist["count"] == 3
        assert batch_hist["total"] == 10.0
        assert batch_hist["max"] == 4.0

    def test_batch1_is_solo_dispatch(self):
        requests = [_request(i) for i in range(4)]
        responses = _serve_burst(requests, FlushPolicy(max_batch=1, max_wait_s=0.0))
        assert all(r.served["batch_size"] == 1 for r in responses)

    def test_window_expiry_flushes_partial_batch(self):
        # max_batch far above the arrivals: only the window can flush.
        requests = [_request(i) for i in range(3)]
        responses = _serve_burst(requests, FlushPolicy(max_batch=100, max_wait_s=0.01))
        assert [r.served["batch_size"] for r in responses] == [3, 3, 3]

    def test_flush_partitions_incompatible_keys(self):
        # One flush, two batch keys: the flush runs one engine group per
        # key but stays a single flush for metrics purposes.
        requests = [
            MechanismRequest(topology="chain", m=3, seed=0, request_id=0),
            MechanismRequest(topology="star", m=3, seed=1, request_id=1),
            MechanismRequest(topology="chain", m=3, seed=2, request_id=2),
        ]
        with collecting() as registry:
            responses = _serve_burst(requests, FlushPolicy(max_batch=8, max_wait_s=0.0))
        counters = registry.snapshot()["counters"]
        assert counters["serve.flushes"] == 1
        assert counters["serve.flush_groups"] == 2
        # served batch_size reports the engine group's stack, per key.
        assert responses[0].served["batch_size"] == 2
        assert responses[1].served["batch_size"] == 1
        assert all(r.ok for r in responses)

    def test_drain_after_close_serves_backlog(self):
        requests = [_request(i) for i in range(7)]
        responses = _serve_burst(
            requests, FlushPolicy(max_batch=3, max_wait_s=0.0), pre_close=True
        )
        assert all(r.ok for r in responses)
        assert [r.request_id for r in responses] == list(range(7))

    def test_cancelled_future_does_not_break_flush(self):
        async def _run():
            queue = AdmissionQueue(capacity=8)
            dispatcher = Dispatcher(queue, FlushPolicy(max_batch=4, max_wait_s=0.0))
            futures = [queue.submit(_request(i)) for i in range(3)]
            futures[1].cancel()
            dispatcher.start()
            kept = await asyncio.gather(futures[0], futures[2])
            queue.close()
            await dispatcher.join()
            return kept

        kept = asyncio.run(_run())
        assert all(r.ok for r in kept)

    def test_short_engine_return_fails_tail_futures_with_error(self, monkeypatch):
        # Regression: zip(indices, responses) used to drop the tail of a
        # short engine return silently, leaving those futures pending
        # forever (await would hang).  Now every unmatched member gets a
        # structured internal error.
        import repro.serve.dispatcher as dispatcher_mod

        real_run_group_rows = dispatcher_mod.run_group_rows

        def short_run_group_rows(requests):
            responses, snaps = real_run_group_rows(requests)
            return responses[:-1], snaps[:-1]

        monkeypatch.setattr(dispatcher_mod, "run_group_rows", short_run_group_rows)

        requests = [_request(i) for i in range(3)]
        with collecting() as registry:
            responses = _serve_burst(requests, FlushPolicy(max_batch=8, max_wait_s=0.0))
        assert len(responses) == 3
        assert [r.ok for r in responses] == [True, True, False]
        assert "engine returned 2 responses" in responses[2].error
        assert responses[2].request_id == 2
        assert registry.snapshot()["counters"]["serve.errors"] == 1

    def test_long_engine_return_truncates_not_misattributes(self, monkeypatch):
        import repro.serve.dispatcher as dispatcher_mod

        from repro.serve.request import MechanismResponse

        real_run_group_rows = dispatcher_mod.run_group_rows

        def long_run_group_rows(requests):
            responses, snaps = real_run_group_rows(requests)
            return responses + [MechanismResponse(ok=True, request_id=999)], snaps + [{}]

        monkeypatch.setattr(dispatcher_mod, "run_group_rows", long_run_group_rows)

        requests = [_request(i) for i in range(2)]
        responses = _serve_burst(requests, FlushPolicy(max_batch=8, max_wait_s=0.0))
        assert [r.request_id for r in responses] == [0, 1]
        assert all(r.ok for r in responses)
