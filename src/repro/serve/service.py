"""The asyncio front-end: TCP JSON-lines in, coalesced mechanism runs out.

``python -m repro serve start`` binds a :class:`MechanismService` to a
loopback port.  The wire protocol is one JSON object per line:

- ``{"op": "run", "topology": ..., "m": ..., "seed": ..., ...}`` —
  admit a mechanism request (fields of
  :class:`~repro.serve.request.MechanismRequest`); the response echoes
  ``request_id``, so clients may pipeline and complete out of order.
- ``{"op": "ping"}`` — liveness probe.
- ``{"op": "stats"}`` — the live ``serve.*`` / ``mechanism.*`` counter
  totals and queue depth.
- ``{"op": "shutdown"}`` — graceful stop: admission closes (new runs
  are rejected), the dispatcher drains everything already admitted,
  then the server exits.

Each connection handles every request line in its own task: a request
parked in the dispatcher's batch window must not block the reader from
admitting the very stragglers that would fill the batch.

Malformed input never takes the service down: unparseable JSON,
non-object messages, unknown ops and lines longer than the stream limit
each produce a structured ``{"ok": false, "error": ...}`` response (and
bump the ``serve.rejected_malformed`` counter) while the connection and
the dispatcher keep serving — an oversized line is drained from the
socket up to its terminating newline and the next line is read normally.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from typing import Mapping

from repro.obs.metrics import get_registry
from repro.serve.admission import AdmissionError, AdmissionQueue
from repro.serve.dispatcher import Dispatcher, FlushPolicy
from repro.serve.pool import WorkerPool
from repro.serve.request import MechanismRequest, MechanismResponse, RequestError

__all__ = ["MechanismService"]


def _echo_id(msg: Mapping[str, Any]) -> int | None:
    """The ``request_id`` to echo on an error response, or ``None``.

    Error paths must not reflect arbitrary JSON back to the caller; only
    a well-formed integer id (never a bool) is echoed.
    """
    request_id = msg.get("request_id")
    if isinstance(request_id, bool) or not isinstance(request_id, int):
        return None
    return request_id


class MechanismService:
    """Admission queue + dispatcher + TCP server, one event loop.

    ``workers=0`` (the default) executes flushes inline in the event
    loop; ``workers >= 1`` puts a :class:`~repro.serve.pool.WorkerPool`
    of that many processes behind the dispatcher.  Either way every
    response — and the folded counter totals — stays bitwise-equal to
    the solo scalar recipe.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        policy: FlushPolicy | None = None,
        capacity: int = 256,
        tenant_capacity: int | None = None,
        weights: Mapping[str, float] | None = None,
        workers: int = 0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative (0 serves inline)")
        self.host = host
        self.port = port
        self.queue = AdmissionQueue(
            capacity, tenant_capacity=tenant_capacity, weights=weights
        )
        self.pool = WorkerPool(workers) if workers > 0 else None
        self.dispatcher = Dispatcher(self.queue, policy, pool=self.pool)
        self._server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None

    async def start(self) -> None:
        """Start the pool's workers, then the dispatcher loop, then bind
        the server."""
        if self.pool is not None:
            self.pool.warm()
        self._stopping = asyncio.Event()
        self.dispatcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Resolve port 0 to the bound ephemeral port.
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Block until a shutdown is requested, then drain and exit."""
        assert self._stopping is not None
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain admitted work."""
        self.queue.close()
        await self.dispatcher.join()
        if self.pool is not None:
            self.pool.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def request_stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    # -- connection handling ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lock = asyncio.Lock()
        tasks: set[asyncio.Task[None]] = set()
        try:
            eof = False
            while not eof:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    # Clean EOF (empty partial) or a final unterminated
                    # line — handle the leftovers, then stop reading.
                    line = exc.partial
                    eof = True
                    if not line:
                        break
                except asyncio.LimitOverrunError as exc:
                    # A line longer than the stream limit: reject it
                    # without buffering it, drain through its newline,
                    # and keep the connection serving.
                    eof = not await self._drain_oversized(reader, exc.consumed)
                    get_registry().inc("serve.rejected_malformed")
                    await self._write(
                        writer,
                        lock,
                        {"ok": False, "error": "line too long"},
                    )
                    continue
                except (ConnectionError, OSError):
                    break
                line = line.strip()
                if not line:
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._handle_line(line, writer, lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            # Loop teardown with the connection still open (a client that
            # sent shutdown and lingered); closing quietly is the whole
            # job here, so don't re-raise into the streams machinery.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _drain_oversized(reader: asyncio.StreamReader, consumed: int) -> bool:
        """Discard an over-limit line through its terminating newline.

        Returns ``True`` when the stream is still readable afterwards,
        ``False`` on EOF mid-discard.
        """
        try:
            await reader.readexactly(consumed)
            while True:
                try:
                    await reader.readuntil(b"\n")
                    return True
                except asyncio.LimitOverrunError as exc:
                    await reader.readexactly(exc.consumed)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return False

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        try:
            msg = json.loads(line)
        # ValueError also covers invalid UTF-8 (UnicodeDecodeError) and
        # integers past the int-to-str digit limit, not only JSONDecodeError.
        except ValueError as exc:
            get_registry().inc("serve.rejected_malformed")
            await self._write(writer, lock, {"ok": False, "error": f"bad json: {exc}"})
            return
        if not isinstance(msg, dict):
            get_registry().inc("serve.rejected_malformed")
            await self._write(writer, lock, {"ok": False, "error": "message must be an object"})
            return
        op = msg.get("op", "run")
        if op == "ping":
            await self._write(writer, lock, {"ok": True, "pong": True})
        elif op == "stats":
            await self._write(writer, lock, {"ok": True, "stats": self.stats()})
        elif op == "shutdown":
            await self._write(writer, lock, {"ok": True, "stopping": True})
            self.request_stop()
        elif op == "run":
            response = await self._handle_run(msg)
            await self._write(writer, lock, response.to_wire())
        else:
            get_registry().inc("serve.rejected_malformed")
            reply: dict[str, Any] = {"ok": False, "error": f"unknown op {op!r}"}
            request_id = _echo_id(msg)
            if request_id is not None:
                reply["request_id"] = request_id
            await self._write(writer, lock, reply)

    async def _handle_run(self, msg: dict[str, Any]) -> MechanismResponse:
        try:
            request = MechanismRequest.from_wire(msg)
        except RequestError as exc:
            get_registry().inc("serve.invalid")
            return MechanismResponse(ok=False, error=str(exc), request_id=_echo_id(msg))
        try:
            future = self.queue.submit(request)
        except AdmissionError as exc:
            return MechanismResponse(
                ok=False, error=str(exc), request_id=request.request_id
            )
        return await future

    async def _write(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, msg: dict[str, Any]
    ) -> None:
        # One writer lock per connection: response lines from concurrent
        # request tasks must not interleave mid-line.
        async with lock:
            try:
                writer.write(json.dumps(msg, sort_keys=True).encode() + b"\n")
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    def stats(self) -> dict[str, Any]:
        snapshot = get_registry().snapshot()
        counters = snapshot.get("counters", {})
        return {
            "queue_depth": self.queue.depth(),
            "capacity": self.queue.capacity,
            "tenant_capacity": self.queue.tenant_capacity,
            "tenants": self.queue.tenants(),
            "policy": self.dispatcher.policy.label,
            "workers": self.pool.workers if self.pool is not None else 0,
            "counters": {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith("serve.") or name.startswith("mechanism.")
            },
            # Flush sizes and queue depths: how much the dispatcher
            # actually coalesces under the live load.
            "histograms": {
                name: {key: hist[key] for key in ("count", "mean", "p50", "p99", "max")}
                for name, hist in sorted(snapshot.get("histograms", {}).items())
                if name.startswith("serve.")
            },
        }
