"""End-to-end service tests: real sockets, pipelining, graceful stop."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

from repro.cli import main
from repro.serve.client import (
    mixed_workload,
    request_once,
    run_load,
    shutdown_server,
)
from repro.serve.dispatcher import FlushPolicy
from repro.serve.engine import solo_summary
from repro.serve.request import MechanismRequest
from repro.serve.service import MechanismService


async def _with_service(coro, *, policy=None, capacity=256, **kwargs):
    service = MechanismService(port=0, policy=policy, capacity=capacity, **kwargs)
    await service.start()
    try:
        return await coro(service)
    finally:
        await service.stop()


class TestServiceEndToEnd:
    def test_load_is_bitwise_equal_and_micro_batched(self):
        requests = mixed_workload(40, seed=7, sizes=(3, 4))

        async def _go(service):
            return await run_load(
                "127.0.0.1", service.port, requests, connections=4, verify=True
            )

        report = asyncio.run(
            _with_service(_go, policy=FlushPolicy(max_batch=8, max_wait_s=0.002))
        )
        assert report["ok"] == 40
        assert report["errors"] == 0
        assert report["bitwise_equal"] is True
        assert report["unverified"] == 0
        # Untraced chain/star requests, deviants included, all stack.
        assert set(report["served_engines"]) == {"array"}
        assert report["mean_batch_size"] >= 1.0
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]

    def test_ping_stats_and_unknown_op(self):
        async def _go(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                for msg in ({"op": "ping"}, {"op": "stats"}, {"op": "warp", "request_id": 5}):
                    writer.write(json.dumps(msg).encode() + b"\n")
                await writer.drain()
                return [json.loads(await reader.readline()) for _ in range(3)]
            finally:
                writer.close()
                await writer.wait_closed()

        pong, stats, unknown = asyncio.run(_with_service(_go))
        assert pong == {"ok": True, "pong": True}
        assert stats["ok"] and stats["stats"]["capacity"] == 256
        assert "policy" in stats["stats"]
        assert not unknown["ok"] and "unknown op" in unknown["error"]
        assert unknown["request_id"] == 5

    def test_stats_report_flush_sizes(self):
        requests = mixed_workload(30, seed=23, sizes=(3,))

        async def _go(service):
            report = await run_load(
                "127.0.0.1", service.port, requests, connections=2, verify=True
            )
            return report, service.stats()

        report, stats = asyncio.run(_with_service(_go))
        assert report["ok"] == 30 and report["bitwise_equal"] is True
        batch = stats["histograms"]["serve.batch_size"]
        assert batch["count"] == stats["counters"]["serve.flushes"]
        assert 1.0 <= batch["mean"] <= batch["max"] <= FlushPolicy().max_batch

    def test_invalid_requests_rejected_before_admission(self):
        async def _go(service):
            good_run = await request_once(
                "127.0.0.1",
                service.port,
                MechanismRequest(topology="chain", m=3, seed=0, request_id=1),
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(b'{"op": "run", "topology": "ring", "request_id": 2}\n')
                writer.write(b'{"op": "run", "m": true, "request_id": 3}\n')
                writer.write(b'{"op": "run", "m": 3, "request_id": {"evil": 1}}\n')
                writer.write(b'not json at all\n')
                await writer.drain()
                replies = [json.loads(await reader.readline()) for _ in range(4)]
            finally:
                writer.close()
                await writer.wait_closed()
            return good_run, replies

        good, (ring, bool_m, bad_id, garbage) = asyncio.run(_with_service(_go))
        assert good["ok"] is True
        assert not ring["ok"] and "unknown topology" in ring["error"]
        assert ring["request_id"] == 2
        # JSON true must not be served as m=1 (bool is an int subclass).
        assert not bool_m["ok"] and "m must be an integer" in bool_m["error"]
        assert bool_m["request_id"] == 3
        # A non-integer request_id is refused, never reflected back.
        assert not bad_id["ok"] and "request_id" in bad_id["error"]
        assert "request_id" not in bad_id
        assert not garbage["ok"] and "bad json" in garbage["error"]

    def test_tree_requests_are_served_bitwise(self):
        requests = mixed_workload(
            18, seed=11, sizes=(3, 5), topologies=("chain", "tree"), deviants=True
        )

        async def _go(service):
            return await run_load(
                "127.0.0.1", service.port, requests, connections=3, verify=True
            )

        report = asyncio.run(
            _with_service(_go, policy=FlushPolicy(max_batch=6, max_wait_s=0.002))
        )
        assert report["ok"] == 18 and report["errors"] == 0
        assert report["bitwise_equal"] is True
        # Tree rows ride the scalar DLS-T engine.
        assert report["served_engines"].get("scalar", 0) > 0

    def test_overflow_is_rejected_not_queued(self):
        # Capacity 1 with a wide-open batch window: the second pipelined
        # request finds the queue full and is refused immediately.
        async def _go(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                for rid in (1, 2, 3):
                    writer.write(
                        json.dumps(
                            MechanismRequest(m=3, seed=rid, request_id=rid).to_wire()
                        ).encode()
                        + b"\n"
                    )
                await writer.drain()
                return [json.loads(await reader.readline()) for _ in range(3)]
            finally:
                writer.close()
                await writer.wait_closed()

        responses = asyncio.run(
            _with_service(
                _go,
                policy=FlushPolicy(max_batch=64, max_wait_s=0.25),
                capacity=1,
            )
        )
        by_id = {r["request_id"]: r for r in responses}
        rejected = [r for r in by_id.values() if not r["ok"]]
        served = [r for r in by_id.values() if r["ok"]]
        assert rejected and served
        assert all("full" in r["error"] for r in rejected)

    def test_worker_pool_service_is_bitwise_equal_end_to_end(self):
        # Real sockets, two worker processes, mixed tenants and tree
        # rows: every response verified bitwise against the local solo
        # recipe by the client.
        requests = mixed_workload(
            24,
            seed=19,
            sizes=(3, 4),
            topologies=("chain", "star", "tree"),
            tenants=("team-a", "team-b"),
            priorities=(0, 3),
        )

        async def _go(service):
            report = await run_load(
                "127.0.0.1", service.port, requests, connections=3, verify=True
            )
            stats = service.stats()
            return report, stats

        report, stats = asyncio.run(
            _with_service(
                _go, policy=FlushPolicy(max_batch=6, max_wait_s=0.002), workers=2
            )
        )
        assert report["ok"] == 24 and report["errors"] == 0
        assert report["bitwise_equal"] is True
        assert report["tenants_ok"] == {"team-a": 12, "team-b": 12}
        assert stats["workers"] == 2
        assert stats["queue_depth"] >= 0
        assert stats["counters"].get("serve.pool_dispatches", 0) >= 1

    def test_half_closed_client_gets_eof_after_a_worker_restart(self):
        # The replacement worker starts while the second connection is
        # open; it must not hold that socket, or the server's close never
        # reaches the half-closed client.
        def line(request_id):
            msg = {"op": "run", "topology": "chain", "m": 3, "seed": request_id,
                   "request_id": request_id}
            return json.dumps(msg).encode() + b"\n"

        async def _go(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            writer.write(line(0))
            await writer.drain()
            first = json.loads(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await writer.wait_closed()

            executor = service.pool._executor
            for pid in list(executor._processes):
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while not executor._broken and time.monotonic() < deadline:
                await asyncio.sleep(0.01)

            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            writer.write(line(1))
            await writer.drain()
            writer.write_eof()
            # read() returns only at EOF.
            rest = await asyncio.wait_for(reader.read(), 20)
            writer.close()
            return first, [json.loads(x) for x in rest.splitlines()], service.stats()

        first, replies, stats = asyncio.run(_with_service(_go, workers=1))
        assert [r["request_id"] for r in [first, *replies]] == [0, 1]
        for reply in [first, *replies]:
            request = MechanismRequest(
                topology="chain", m=3, seed=reply["request_id"], request_id=reply["request_id"]
            ).validate()
            assert reply["ok"] and reply["summary"] == solo_summary(request)
        assert stats["counters"]["serve.pool_restarts"] == 1

    def test_graceful_shutdown_drains_admitted_work(self):
        requests = mixed_workload(12, seed=3, sizes=(3,))

        async def _go():
            service = MechanismService(
                port=0, policy=FlushPolicy(max_batch=4, max_wait_s=0.01)
            )
            await service.start()
            server_task = asyncio.ensure_future(service.serve_until_stopped())
            report = await run_load(
                "127.0.0.1", service.port, requests, connections=2, verify=True
            )
            reply = await shutdown_server("127.0.0.1", service.port)
            await server_task
            return report, reply

        report, reply = asyncio.run(_go())
        assert report["ok"] == 12 and report["bitwise_equal"] is True
        assert reply == {"ok": True, "stopping": True}


class TestServeCLI:
    def test_serve_bench_exits_0_and_reports_policies(self, capsys):
        assert main(["serve", "bench", "--count", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "solo" in out
        assert "batch8@2ms" in out
        assert "bitwise" in out
