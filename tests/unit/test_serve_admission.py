"""Admission control: bounded queue, reject-on-overflow, drain semantics."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.metrics import collecting
from repro.serve.admission import SHUTDOWN, AdmissionError, AdmissionQueue
from repro.serve.request import MechanismRequest


def _request(i: int, *, tenant: str = "default", priority: int = 0) -> MechanismRequest:
    return MechanismRequest(m=3, seed=i, request_id=i, tenant=tenant, priority=priority)


class TestAdmission:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)

    def test_submit_admits_up_to_capacity_then_rejects(self):
        async def _run():
            queue = AdmissionQueue(capacity=3)
            with collecting() as registry:
                for i in range(3):
                    queue.submit(_request(i))
                assert queue.depth() == 3
                with pytest.raises(AdmissionError, match="full"):
                    queue.submit(_request(99))
            counters = registry.snapshot()["counters"]
            assert counters["serve.admitted"] == 3
            assert counters["serve.rejected"] == 1

        asyncio.run(_run())

    def test_closed_queue_rejects_everything(self):
        async def _run():
            queue = AdmissionQueue(capacity=3)
            queue.submit(_request(0))
            queue.close()
            assert queue.closed
            with collecting() as registry:
                with pytest.raises(AdmissionError, match="shutting down"):
                    queue.submit(_request(1))
            assert registry.snapshot()["counters"]["serve.rejected"] == 1

        asyncio.run(_run())

    def test_depth_excludes_shutdown_sentinel(self):
        async def _run():
            queue = AdmissionQueue(capacity=3)
            queue.submit(_request(0))
            queue.submit(_request(1))
            queue.close()
            assert queue.depth() == 2

        asyncio.run(_run())

    def test_close_is_idempotent_and_never_overflows(self):
        async def _run():
            # close() uses the reserved sentinel slot even at capacity.
            queue = AdmissionQueue(capacity=2)
            queue.submit(_request(0))
            queue.submit(_request(1))
            queue.close()
            queue.close()
            assert queue.depth() == 2

        asyncio.run(_run())

    def test_dispatcher_sees_items_then_sentinel(self):
        async def _run():
            queue = AdmissionQueue(capacity=4)
            futures = [queue.submit(_request(i)) for i in range(2)]
            queue.close()
            first = await queue.get()
            second = await queue.get()
            sentinel = await queue.get()
            assert [item[0].request_id for item in (first, second)] == [0, 1]
            assert first[1] is futures[0] and second[1] is futures[1]
            assert sentinel is SHUTDOWN

        asyncio.run(_run())

    def test_queue_depth_histogram_observed_on_admit(self):
        async def _run():
            queue = AdmissionQueue(capacity=4)
            with collecting() as registry:
                for i in range(3):
                    queue.submit(_request(i))
            histogram = registry.snapshot()["histograms"]["serve.queue_depth"]
            assert histogram["count"] == 3
            # Depth observed after each enqueue: 1, 2, 3.
            assert histogram["total"] == 6.0

        asyncio.run(_run())

    def test_depth_never_negative_after_sentinel_consumed(self):
        # Regression: the sentinel used to occupy a queue slot, so
        # depth() went to -1 once the dispatcher consumed it mid-drain.
        async def _run():
            queue = AdmissionQueue(capacity=4)
            queue.submit(_request(0))
            queue.close()
            item = await queue.get()
            assert item is not SHUTDOWN
            assert queue.depth() == 0
            sentinel = await queue.get()
            assert sentinel is SHUTDOWN
            assert queue.depth() == 0
            # And it stays clean across repeated polls of an empty queue.
            with pytest.raises(asyncio.QueueEmpty):
                queue.get_nowait()
            assert queue.depth() == 0

        asyncio.run(_run())


class TestFairAdmission:
    def test_tenant_capacity_bounds_one_tenant_without_starving_others(self):
        async def _run():
            queue = AdmissionQueue(capacity=8, tenant_capacity=2)
            with collecting() as registry:
                queue.submit(_request(0, tenant="flood"))
                queue.submit(_request(1, tenant="flood"))
                with pytest.raises(AdmissionError, match="tenant 'flood'"):
                    queue.submit(_request(2, tenant="flood"))
                # Another tenant is still welcome while flood is rejected.
                queue.submit(_request(3, tenant="quiet"))
            counters = registry.snapshot()["counters"]
            assert counters["serve.rejected_tenant_overflow"] == 1
            assert counters["serve.tenant.flood.rejected"] == 1
            assert counters["serve.tenant.quiet.admitted"] == 1
            assert queue.tenant_depth("flood") == 2
            assert queue.tenants() == {"flood": 2, "quiet": 1}

        asyncio.run(_run())

    def test_round_robin_interleaves_tenants(self):
        # Tenant a floods first; b's lone request still drains within
        # one ring rotation, not after a's whole backlog.
        async def _run():
            queue = AdmissionQueue(capacity=16)
            for i in range(4):
                queue.submit(_request(i, tenant="a"))
            queue.submit(_request(10, tenant="b"))
            order = []
            for _ in range(5):
                request, _future = await queue.get()
                order.append(request.tenant)
            return order

        order = asyncio.run(_run())
        assert "b" in order[:2]

    def test_weights_skew_service_ratio(self):
        async def _run():
            queue = AdmissionQueue(capacity=16, weights={"heavy": 2.0})
            for i in range(6):
                queue.submit(_request(i, tenant="heavy"))
            for i in range(6, 12):
                queue.submit(_request(i, tenant="light"))
            first_six = []
            for _ in range(6):
                request, _future = await queue.get()
                first_six.append(request.tenant)
            return first_six

        first_six = asyncio.run(_run())
        assert first_six.count("heavy") == 4
        assert first_six.count("light") == 2

    def test_priority_orders_within_tenant_fifo_within_level(self):
        async def _run():
            queue = AdmissionQueue(capacity=8)
            queue.submit(_request(0, priority=0))
            queue.submit(_request(1, priority=5))
            queue.submit(_request(2, priority=5))
            queue.submit(_request(3, priority=-1))
            order = []
            for _ in range(4):
                request, _future = await queue.get()
                order.append(request.request_id)
            return order

        assert asyncio.run(_run()) == [1, 2, 0, 3]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="tenant capacity"):
            AdmissionQueue(capacity=4, tenant_capacity=0)
        with pytest.raises(ValueError, match="weights"):
            AdmissionQueue(capacity=4, weights={"a": 0.5})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        # NaN never earns a deficit of 1, so the first get() would spin
        # the ring forever; inf never spends its deficit, so that tenant
        # would drain its whole backlog before any other.
        with pytest.raises(ValueError, match="finite"):
            AdmissionQueue(capacity=4, weights={"a": weight})

    def test_cli_rejects_non_finite_weight(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.serve.service import MechanismService

        async def never(_self):
            raise AssertionError("the service must not start")

        monkeypatch.setattr(MechanismService, "start", never)
        assert main(["serve", "start", "--weight", "a=nan"]) == 2
        assert "finite" in capsys.readouterr().out

    def test_idle_tenant_banks_no_deficit(self):
        # A tenant that drains and comes back later re-enters the ring
        # with a fresh deficit — history buys no burst.
        async def _run():
            queue = AdmissionQueue(capacity=8, weights={"a": 3.0})
            queue.submit(_request(0, tenant="a"))
            await queue.get()
            assert queue.tenants() == {}
            queue.submit(_request(1, tenant="b"))
            queue.submit(_request(2, tenant="a"))
            request, _future = await queue.get()
            return request.tenant

        # b was first into the (empty) ring, so b is served first even
        # though a carries the larger weight.
        assert asyncio.run(_run()) == "b"
