"""Pool parity and fair-admission properties.

The worker pool's contract is absolute: worker count is invisible in
every observable.  ``--workers 1`` and ``--workers 2`` (and inline
execution with no pool at all) must produce bitwise-identical response
summaries AND bitwise-identical folded ``mechanism.*``/``ledger.*``
counter totals for the same request stream — across every deviant kind
and every topology, tree rows included.  No tolerances anywhere.

The fair queue's property is a starvation bound: with equal weights,
deficit round-robin serves backlogged tenants in strict rotation, so no
tenant with pending work waits more than one full ring rotation between
services.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.metrics import collecting
from repro.serve.admission import AdmissionQueue
from repro.serve.client import mixed_workload
from repro.serve.dispatcher import Dispatcher, FlushPolicy
from repro.serve.engine import solo_summary
from repro.serve.pool import WorkerPool
from repro.serve.request import MechanismRequest

ALL_DEVIANT_KINDS = (
    "shed",
    "overcharge",
    "misbid",
    "slow",
    "contradict",
    "miscompute",
    "tamper",
    "accuse",
)

TREE_KINDS = ("misbid", "slow")


def _parity_workload(*, multi_tenant: bool = False) -> list[MechanismRequest]:
    """Every deviant kind on chain/star, tree's two kinds, truthful rows.

    With ``multi_tenant`` the stream spreads tenants and priorities, so
    the fair queue *reorders* it — the serve order (hence the float fold
    order) then differs from submission order, which is why the
    solo-loop fold comparison uses the single-tenant variant.
    """
    requests: list[MechanismRequest] = []
    rid = 0

    def add(topology: str, deviant: str | None) -> None:
        nonlocal rid
        requests.append(
            MechanismRequest(
                topology=topology,
                m=4,
                seed=200 + rid,
                deviant=deviant,
                request_id=rid,
                tenant=("team-a", "team-b")[rid % 2] if multi_tenant else "default",
                priority=(rid % 3) - 1 if multi_tenant else 0,
            ).validate()
        )
        rid += 1

    for topology in ("chain", "star"):
        for kind in ALL_DEVIANT_KINDS:
            spec = f"2:{kind}:1.5" if kind in ("overcharge", "slow") else f"2:{kind}"
            add(topology, spec)
            add(topology, None)
    for kind in TREE_KINDS:
        add("tree", f"2:{kind}:2.0" if kind == "slow" else f"2:{kind}")
        add("tree", None)
    return requests


def _serve(
    requests: list[MechanismRequest], policy: FlushPolicy, workers: int
) -> tuple[list, dict]:
    """Serve a burst through a dispatcher; return (responses, counters)."""

    async def _run():
        queue = AdmissionQueue(capacity=len(requests) + 1)
        pool = WorkerPool(workers) if workers else None
        dispatcher = Dispatcher(queue, policy, pool=pool)
        dispatcher.start()
        futures = [queue.submit(r) for r in requests]
        results = await asyncio.gather(*futures)
        queue.close()
        await dispatcher.join()
        if pool is not None:
            pool.close()
        return results

    with collecting() as registry:
        responses = asyncio.run(_run())
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith(("mechanism.", "ledger."))
    }
    return responses, counters


class TestPoolParity:
    def test_workers_1_vs_2_vs_inline_bitwise_equal(self):
        # The acceptance property: same stream, three execution modes,
        # identical bytes — summaries and protocol-counter folds alike.
        # Single tenant so the serve order equals submission order and
        # the fold can be compared against a solo loop directly.
        requests = _parity_workload()
        policy = FlushPolicy(max_batch=8, max_wait_s=0.002)
        inline_responses, inline_counters = _serve(requests, policy, workers=0)
        one_responses, one_counters = _serve(requests, policy, workers=1)
        two_responses, two_counters = _serve(requests, policy, workers=2)

        for request, r0, r1, r2 in zip(
            requests, inline_responses, one_responses, two_responses
        ):
            expected = solo_summary(request)
            assert r0.ok and r1.ok and r2.ok
            assert r0.summary == expected
            assert r1.summary == expected
            assert r2.summary == expected
        assert inline_counters == one_counters == two_counters
        # The fold is the solo loop's fold: rebuild it independently.
        with collecting() as solo:
            for request in requests:
                with collecting():
                    solo_summary(request)
        solo_counters = {
            name: value
            for name, value in solo.snapshot()["counters"].items()
            if name.startswith(("mechanism.", "ledger."))
        }
        drop = {"mechanism.scalar_fallbacks"}
        assert {k: v for k, v in inline_counters.items() if k not in drop} == {
            k: v for k, v in solo_counters.items() if k not in drop
        }

    def test_multi_tenant_reordered_stream_still_parity_across_modes(self):
        # Tenants and priorities make DRR reorder the stream; the serve
        # order is deterministic given the submissions, so the three
        # execution modes must still agree bitwise with each other (and
        # every summary with its own solo recipe).
        requests = _parity_workload(multi_tenant=True)
        policy = FlushPolicy(max_batch=8, max_wait_s=0.002)
        inline_responses, inline_counters = _serve(requests, policy, workers=0)
        two_responses, two_counters = _serve(requests, policy, workers=2)
        for request, r0, r2 in zip(requests, inline_responses, two_responses):
            expected = solo_summary(request)
            assert r0.ok and r2.ok
            assert r0.summary == expected
            assert r2.summary == expected
        assert inline_counters == two_counters

    @pytest.mark.parametrize(
        "policy",
        [
            FlushPolicy(max_batch=1, max_wait_s=0.0),
            FlushPolicy(max_batch=32, max_wait_s=0.005),
        ],
        ids=lambda p: p.label,
    )
    def test_pooled_bitwise_across_flush_policies(self, policy):
        requests = mixed_workload(
            18, seed=31, sizes=(3, 4), topologies=("chain", "star", "tree")
        )
        responses, _counters = _serve(requests, policy, workers=2)
        for request, response in zip(requests, responses):
            assert response.ok, response.error
            assert response.summary == solo_summary(request)


class TestFairQueueProperties:
    def test_no_backlogged_tenant_waits_more_than_one_rotation(self):
        # Three equal-weight tenants, interleaved backlog: DRR must
        # serve them in strict rotation — consecutive services of the
        # same tenant are at most n_tenants apart while all have work.
        tenants = ("a", "b", "c")

        async def _run():
            queue = AdmissionQueue(capacity=64)
            for i in range(15):
                queue.submit(
                    MechanismRequest(
                        m=3, seed=i, request_id=i, tenant=tenants[i % 3]
                    ).validate()
                )
            order = []
            for _ in range(15):
                request, _future = await queue.get()
                order.append(request.tenant)
            return order

        order = asyncio.run(_run())
        for tenant in tenants:
            positions = [i for i, t in enumerate(order) if t == tenant]
            assert len(positions) == 5
            gaps = [b - a for a, b in zip(positions, positions[1:])]
            assert max(gaps) <= len(tenants)

    def test_flood_tenant_cannot_starve_a_quiet_one(self):
        async def _run():
            queue = AdmissionQueue(capacity=128)
            for i in range(50):
                queue.submit(
                    MechanismRequest(m=3, seed=i, request_id=i, tenant="flood").validate()
                )
            queue.submit(
                MechanismRequest(m=3, seed=99, request_id=99, tenant="quiet").validate()
            )
            served_before_quiet = 0
            while True:
                request, _future = await queue.get()
                if request.tenant == "quiet":
                    return served_before_quiet
                served_before_quiet += 1

        # The quiet tenant is served within one rotation of the
        # two-tenant ring, not after the flood's 50-request backlog.
        assert asyncio.run(_run()) <= 2

    def test_served_through_dispatcher_all_tenants_complete_bitwise(self):
        requests = mixed_workload(
            16,
            seed=37,
            sizes=(3,),
            tenants=("a", "b", "flood"),
            priorities=(0, 2, -2),
        )
        responses, _counters = _serve(
            requests, FlushPolicy(max_batch=4, max_wait_s=0.002), workers=0
        )
        for request, response in zip(requests, responses):
            assert response.ok
            assert response.summary == solo_summary(request)
