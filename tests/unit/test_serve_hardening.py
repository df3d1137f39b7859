"""Front-end hardening: malformed input never kills the connection.

Each abuse case — oversized line, unparseable JSON, non-object message,
unknown op — must produce a structured error response, bump the
``serve.rejected_malformed`` counter, and leave both the connection and
the dispatcher healthy enough to serve a real request afterwards.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs.metrics import get_registry
from repro.serve.service import MechanismService


@pytest.fixture(autouse=True)
def _reset_metrics():
    get_registry().reset()
    yield
    get_registry().reset()


async def _with_service(coro):
    service = MechanismService(port=0)
    await service.start()
    try:
        return await coro(service)
    finally:
        await service.stop()


def _rejected() -> float:
    return get_registry().counter("serve.rejected_malformed")


class TestWorkerCount:
    def test_negative_worker_count_rejected(self):
        # Used to be served inline without a word.
        with pytest.raises(ValueError, match="non-negative"):
            MechanismService(workers=-2)

    def test_cli_rejects_negative_worker_count(self, capsys, monkeypatch):
        from repro.cli import main

        async def never(_self):
            raise AssertionError("the service must not start")

        monkeypatch.setattr(MechanismService, "start", never)
        assert main(["serve", "start", "--workers", "-2"]) == 2
        assert "non-negative" in capsys.readouterr().out


class TestMalformedInput:
    def test_bad_json_nonobject_and_unknown_op_survive(self):
        async def _go(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                lines = [
                    b"{not json at all\n",
                    b"[1, 2, 3]\n",
                    b'{"op": "warp"}\n',
                ]
                for line in lines:
                    writer.write(line)
                await writer.drain()
                replies = [json.loads(await reader.readline()) for _ in lines]
                # The connection is still alive: a ping round-trips.
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                pong = json.loads(await reader.readline())
                return replies, pong
            finally:
                writer.close()
                await writer.wait_closed()

        replies, pong = asyncio.run(_with_service(_go))
        assert all(r["ok"] is False and r["error"] for r in replies)
        assert pong == {"ok": True, "pong": True}
        assert _rejected() == 3.0

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(b"\xff\xff\n", id="invalid-utf8"),
            # Past the int-to-str digit limit: a plain ValueError, not a
            # JSONDecodeError.
            pytest.param(b'{"op": "run", "seed": ' + b"9" * 5000 + b"}\n", id="huge-int"),
        ],
    )
    def test_undecodable_line_gets_bad_json_reply(self, line):
        async def _go(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(line)
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(reader.readline(), 10))
                writer.write(b'{"op": "ping"}\n')
                await writer.drain()
                pong = json.loads(await asyncio.wait_for(reader.readline(), 10))
                return reply, pong
            finally:
                writer.close()
                await writer.wait_closed()

        reply, pong = asyncio.run(_with_service(_go))
        assert reply["ok"] is False
        assert reply["error"].startswith("bad json: ")
        assert pong == {"ok": True, "pong": True}
        assert _rejected() == 1.0

    def test_oversized_line_rejected_connection_survives(self):
        async def _go(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                # Far beyond the asyncio stream default limit (64 KiB).
                writer.write(b'{"op": "run", "pad": "' + b"x" * 300_000 + b'"}\n')
                await writer.drain()
                oversized = json.loads(await reader.readline())
                # Same connection, next line parses and dispatches fine.
                writer.write(
                    json.dumps(
                        {"op": "run", "topology": "chain", "m": 3, "seed": 1, "request_id": 9}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                served = json.loads(await reader.readline())
                return oversized, served
            finally:
                writer.close()
                await writer.wait_closed()

        oversized, served = asyncio.run(_with_service(_go))
        assert oversized["ok"] is False
        assert "too long" in oversized["error"]
        assert served["ok"] is True
        assert served["request_id"] == 9
        assert _rejected() == 1.0

    def test_dispatcher_survives_abuse_from_one_client(self):
        async def _go(service):
            # Client A sends garbage and disconnects mid-oversized-line.
            _, abuser = await asyncio.open_connection("127.0.0.1", service.port)
            abuser.write(b"garbage\n" + b"y" * 200_000)  # no newline: EOF mid-line
            await abuser.drain()
            abuser.close()
            await abuser.wait_closed()
            # Client B still gets served.
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(
                    json.dumps(
                        {"op": "run", "topology": "star", "m": 3, "seed": 2, "request_id": 1}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                return json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()

        served = asyncio.run(_with_service(_go))
        assert served["ok"] is True

    def test_counter_appears_in_stats(self):
        async def _go(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                writer.write(b"???\n")
                writer.write(b'{"op": "stats"}\n')
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
                return first, second
            finally:
                writer.close()
                await writer.wait_closed()

        first, second = asyncio.run(_with_service(_go))
        assert first["ok"] is False
        assert second["stats"]["counters"]["serve.rejected_malformed"] == 1.0


#: Specs the seed accepted at the wire and then failed on inside the
#: engine (or, for ``overcharge:inf``, served as a non-JSON ``Infinity``).
_ENGINE_BREAKING_DEVIANTS = (
    "1:misbid:-1",
    "1:misbid:0",
    "1:misbid:nan",
    "1:slow:0",
    "1:shed:inf",
    "2:tamper:nan",
    "1:overcharge:inf",
    "1:misbid:1e8",
)


class TestDeviantValidation:
    @pytest.mark.parametrize("spec", _ENGINE_BREAKING_DEVIANTS)
    def test_rejected_at_the_wire(self, spec):
        from repro.serve.request import MechanismRequest, RequestError

        with pytest.raises(RequestError):
            MechanismRequest.from_wire({"op": "run", "m": 4, "deviant": spec})

    def test_bad_specs_do_not_fail_their_burst(self):
        # All bad lines and one valid chain request arrive in one
        # pipelined burst with the same batch key: the bad ones are
        # refused one by one, the valid one is served exactly.
        from repro.serve.engine import solo_summary
        from repro.serve.request import MechanismRequest

        valid = MechanismRequest(topology="chain", m=4, seed=5, request_id=100)

        async def _go(service):
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            try:
                lines = [
                    {"op": "run", "topology": "chain", "m": 4, "seed": i,
                     "deviant": spec, "request_id": i}
                    for i, spec in enumerate(_ENGINE_BREAKING_DEVIANTS)
                ] + [valid.to_wire()]
                writer.write(b"".join(json.dumps(line).encode() + b"\n" for line in lines))
                await writer.drain()
                raw = [await reader.readline() for _ in lines]
                return raw
            finally:
                writer.close()
                await writer.wait_closed()

        raw = asyncio.run(_with_service(_go))
        replies = {r["request_id"]: r for r in map(json.loads, raw)}
        assert all(b"Infinity" not in line and b"NaN" not in line for line in raw)
        for i in range(len(_ENGINE_BREAKING_DEVIANTS)):
            assert replies[i]["ok"] is False and "deviant" in replies[i]["error"]
        assert replies[100]["ok"] is True
        assert replies[100]["summary"] == solo_summary(valid)
        assert get_registry().counter("serve.invalid") == len(_ENGINE_BREAKING_DEVIANTS)
        assert get_registry().counter("serve.errors") == 0
