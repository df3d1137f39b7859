"""The serving contract: micro-batched responses are bitwise-equal to
solo scalar runs.

Every request names the complete scalar recipe (``default_rng(seed)``
network draw, truthful agents plus at most one deviant, scalar mechanism
run), so the expected answer is recomputable locally and the comparison
is exact float/dict equality — no tolerances anywhere in this file.

Covered here, offline (no sockets — the admission queue and dispatcher
run directly on an event loop):

- every flush policy in the bench's sweep, plus degenerate ones
  (batch 1, zero wait, batch larger than the workload);
- shape mixing: chain and star, several sizes, interleaved in one
  burst so flushes span multiple batch keys;
- deviant lanes: all eight catalogued kinds, array-expressible and
  grievance-triggering alike, mixed with truthful rows;
- out-of-order completion: futures awaited in an adversarial order
  must still resolve to their own request's summary;
- protocol-counter equality: a coalesced run folds the same
  ``mechanism.*`` counter totals a solo loop over the same requests
  would.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.metrics import collecting
from repro.serve.admission import AdmissionQueue
from repro.serve.client import mixed_workload
from repro.serve.dispatcher import Dispatcher, FlushPolicy
from repro.serve.engine import run_group_rows, solo_summary
from repro.serve.request import SUMMARY_FIELDS, MechanismRequest

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


def _deviant_heavy_workload() -> list[MechanismRequest]:
    """Every catalogued deviant kind on chain and star, truthful rows mixed in."""
    requests: list[MechanismRequest] = []
    rid = 0
    for topology in ("chain", "star"):
        for kind in ALL_DEVIANT_KINDS:
            spec = f"2:{kind}:1.5" if kind in ("overcharge", "slow") else f"2:{kind}"
            requests.append(
                MechanismRequest(
                    topology=topology, m=4, seed=100 + rid, deviant=spec, request_id=rid
                ).validate()
            )
            rid += 1
            requests.append(
                MechanismRequest(
                    topology=topology, m=4, seed=100 + rid, request_id=rid
                ).validate()
            )
            rid += 1
    return requests


async def _burst(
    requests: list[MechanismRequest], policy: FlushPolicy
) -> list[dict]:
    """Submit all requests concurrently; return responses in request order."""
    queue = AdmissionQueue(capacity=len(requests) + 1)
    dispatcher = Dispatcher(queue, policy)
    dispatcher.start()
    futures = [queue.submit(r) for r in requests]
    results = await asyncio.gather(*futures)
    queue.close()
    await dispatcher.join()
    return list(results)


def _serve(requests: list[MechanismRequest], policy: FlushPolicy) -> list[dict]:
    return asyncio.run(_burst(requests, policy))


POLICIES = [
    FlushPolicy(max_batch=1, max_wait_s=0.0),
    FlushPolicy(max_batch=2, max_wait_s=0.0),
    FlushPolicy(max_batch=8, max_wait_s=0.002),
    FlushPolicy(max_batch=32, max_wait_s=0.005),
    FlushPolicy(max_batch=1000, max_wait_s=0.02),
]


class TestBitwiseAcrossFlushPolicies:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.label)
    def test_mixed_workload_bitwise_equal_to_solo(self, policy):
        # Chain + star, two sizes, deviants at the client's cadence: the
        # realistic key-diverse stream the dispatcher actually coalesces.
        requests = mixed_workload(24, seed=7, sizes=(3, 4))
        responses = _serve(requests, policy)
        assert len(responses) == len(requests)
        for request, response in zip(requests, responses):
            assert response.ok, response.error
            assert response.request_id == request.request_id
            assert response.summary == solo_summary(request)

    @pytest.mark.parametrize("policy", POLICIES[:3], ids=lambda p: p.label)
    def test_every_deviant_kind_bitwise_equal(self, policy):
        requests = _deviant_heavy_workload()
        responses = _serve(requests, policy)
        for request, response in zip(requests, responses):
            assert response.ok, response.error
            assert response.summary == solo_summary(request)

    def test_grievance_lanes_ride_lane_engine_and_array_rows_stack(self):
        requests = _deviant_heavy_workload()
        responses = _serve(requests, FlushPolicy(max_batch=1000, max_wait_s=0.02))
        # Serve rows are untraced, so every chain and star row — the
        # grievance and abort kinds included — rides the stacked path.
        assert [resp.served["engine"] for resp in responses] == ["array"] * len(requests)


class TestOutOfOrderCompletion:
    def test_futures_awaited_in_adversarial_order(self):
        # Await completion in reverse/interleaved order: each future must
        # still resolve to its own request's summary, not its neighbor's.
        requests = mixed_workload(20, seed=3, sizes=(3, 5))

        async def _scrambled():
            queue = AdmissionQueue(capacity=64)
            dispatcher = Dispatcher(queue, FlushPolicy(max_batch=8, max_wait_s=0.002))
            dispatcher.start()
            futures = [queue.submit(r) for r in requests]
            order = list(range(1, len(futures), 2))[::-1] + list(range(0, len(futures), 2))
            results = {}
            for i in order:
                results[i] = await futures[i]
            queue.close()
            await dispatcher.join()
            return results

        results = asyncio.run(_scrambled())
        for i, request in enumerate(requests):
            assert results[i].request_id == request.request_id
            assert results[i].summary == solo_summary(request)

    def test_late_submissions_join_open_batches(self):
        # Submissions trickling in *after* the dispatcher opened a batch
        # (straggler path through asyncio.wait_for) stay bitwise-equal.
        requests = mixed_workload(12, seed=11, sizes=(4,))

        async def _trickle():
            queue = AdmissionQueue(capacity=64)
            dispatcher = Dispatcher(queue, FlushPolicy(max_batch=6, max_wait_s=0.05))
            dispatcher.start()
            futures = []
            for request in requests:
                futures.append(queue.submit(request))
                await asyncio.sleep(0.001)
            results = await asyncio.gather(*futures)
            queue.close()
            await dispatcher.join()
            return results

        responses = asyncio.run(_trickle())
        batch_sizes = {r.served["batch_size"] for r in responses}
        assert any(size > 1 for size in batch_sizes)
        for request, response in zip(requests, responses):
            assert response.summary == solo_summary(request)


class TestCoalescedEngine:
    def test_one_flush_matches_solo_across_mixed_keys(self):
        requests = mixed_workload(16, seed=5, sizes=(3, 4, 6))
        with collecting():
            responses = _serve(requests, FlushPolicy())
        assert len(responses) == len(requests)
        for request, response in zip(requests, responses):
            assert response.ok
            assert response.summary == solo_summary(request)

    def test_run_group_rejects_mixed_keys(self):
        a = MechanismRequest(topology="chain", m=4, seed=0)
        b = MechanismRequest(topology="star", m=4, seed=1)
        with pytest.raises(ValueError, match="one batch key"):
            run_group_rows([a, b])

    def test_summary_fields_fixed_and_json_roundtrip_exact(self):
        # JSON float serialization is shortest-roundtrip exact, so going
        # over the wire cannot blur the bitwise contract.
        for deviant in (None, "2:contradict", "1:overcharge:2.0"):
            request = MechanismRequest(m=4, seed=9, deviant=deviant)
            summary = solo_summary(request)
            assert tuple(summary) == SUMMARY_FIELDS
            assert json.loads(json.dumps(summary)) == summary

    def test_lane_engine_is_bitwise_equal_reference(self):
        # The lane mechanisms are the scalar protocol behind seams; the
        # engine leans on that equality for every grievance-lane row.
        for topology in ("chain", "star"):
            for deviant in (None, "2:shed", "1:accuse", "2:tamper"):
                request = MechanismRequest(topology=topology, m=4, seed=21, deviant=deviant)
                assert solo_summary(request, engine="lane") == solo_summary(request)

    def test_coalesced_counters_match_solo_loop(self):
        # The dispatcher merges per-row protocol-counter snapshots in
        # request order; integer-valued mechanism.* totals must equal a
        # solo lane loop over the same requests.
        requests = mixed_workload(12, seed=13, sizes=(3, 4))
        with collecting() as coalesced:
            _serve(requests, FlushPolicy())
        with collecting() as solo:
            for request in requests:
                with collecting():
                    solo_summary(request, engine="lane")
        mech_coalesced = {
            k: v
            for k, v in coalesced.snapshot()["counters"].items()
            if k.startswith("mechanism.")
        }
        mech_solo = {
            k: v
            for k, v in solo.snapshot()["counters"].items()
            if k.startswith("mechanism.")
        }
        assert mech_coalesced == mech_solo


class TestTreeTopology:
    """Tree requests route through the scalar DLS-T mechanism per row."""

    @pytest.mark.parametrize("policy", POLICIES[:3], ids=lambda p: p.label)
    def test_tree_rows_bitwise_equal_to_solo(self, policy):
        requests = [
            MechanismRequest(
                topology="tree", m=3 + (i % 3), seed=40 + i, request_id=i,
                deviant=("2:misbid" if i % 3 == 1 else "1:slow:2.0" if i % 3 == 2 else None),
            ).validate()
            for i in range(9)
        ]
        responses = _serve(requests, policy)
        for request, response in zip(requests, responses):
            assert response.ok, response.error
            assert response.summary == solo_summary(request)
            assert response.served["engine"] == "scalar"

    def test_tree_rows_count_scalar_fallbacks_honestly(self):
        requests = mixed_workload(
            12, seed=23, sizes=(3, 4), topologies=("chain", "tree")
        )
        n_tree = sum(1 for r in requests if r.topology == "tree")
        assert n_tree > 0
        with collecting() as registry:
            _serve(requests, FlushPolicy())
        counters = registry.snapshot()["counters"]
        assert counters.get("mechanism.scalar_fallbacks", 0) == n_tree

    def test_coalesced_counters_with_trees_match_solo_loop(self):
        # Same fold-equality contract as chain/star, tree rows included.
        # mechanism.scalar_fallbacks is engine overhead (a solo caller
        # never increments it), so it is excluded from the comparison —
        # its value is pinned by the test above.
        requests = mixed_workload(
            12, seed=29, sizes=(3, 5), topologies=("chain", "star", "tree")
        )
        with collecting() as coalesced:
            _serve(requests, FlushPolicy())
        with collecting() as solo:
            for request in requests:
                with collecting():
                    solo_summary(request, engine="lane")
        drop = {"mechanism.scalar_fallbacks"}
        mech_coalesced = {
            k: v
            for k, v in coalesced.snapshot()["counters"].items()
            if k.startswith(("mechanism.", "ledger.")) and k not in drop
        }
        mech_solo = {
            k: v
            for k, v in solo.snapshot()["counters"].items()
            if k.startswith(("mechanism.", "ledger.")) and k not in drop
        }
        assert mech_coalesced == mech_solo


class TestGracefulDrain:
    def test_everything_admitted_before_close_is_served(self):
        requests = mixed_workload(10, seed=17, sizes=(3,))

        async def _close_immediately():
            queue = AdmissionQueue(capacity=64)
            dispatcher = Dispatcher(queue, FlushPolicy(max_batch=4, max_wait_s=0.01))
            futures = [queue.submit(r) for r in requests]
            queue.close()
            # Dispatcher starts *after* the sentinel is queued: the
            # post-sentinel drain must still serve the whole backlog.
            dispatcher.start()
            await dispatcher.join()
            return [f.result() for f in futures]

        responses = asyncio.run(_close_immediately())
        for request, response in zip(requests, responses):
            assert response.ok
            assert response.summary == solo_summary(request)
