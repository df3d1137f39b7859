"""End-to-end serve workloads: the real serving stack over loopback TCP.

One client holds at most two connections to the server, which runs with
``REPRO_PERF=0`` either as ``python -m repro serve start`` in a process
of its own, or (``in_process`` workloads) as the same
``MechanismService`` bound to loopback inside this process, sharing the
client's event loop.  A run:

1. **Set-up** (``setup_s``), three times: start the server (spawn it and
   wait for its port file, or start a fresh interpreter that imports and
   starts the service), ``ping`` it, and push warm-up traffic through
   every engine path (array, lane, and for trees the scalar recipe and
   the pool fork).  The median of the three set-up times is reported.
2. **Closed loops**: a fixed window of outstanding requests per
   connection over the workload's mixed stream (``throughput_rps``), an
   all-truthful stream (``truthful_runs_per_s``) and an all-deviant stream
   (``deviant_runs_per_s``).  Each counts ok responses per second.
3. **Open loop** at the workload's fixed offered rate.  Each request is
   timed from its *due* time to its response line (``latency_p50_ms``,
   ``latency_p95_ms``); the generator's own lateness is recorded as
   ``client.late_ms_p99``.  The server tree's CPU time over this phase,
   per request, is ``server_cpu_ms_per_req``.
   The closed and open loops alternate over ``ROUNDS`` rounds, each phase
   cut into slices of ``SLICE_S`` seconds.  Every slice is
   bracketed by the calibration kernel (:class:`benchlib.SpeedGauge`),
   and its times are reported in reference seconds (CPU seconds are
   divided by the kernel's CPU-time slowness instead).  Rates, p50,
   ``latency_p95_ms`` (each slice's p95) and CPU are medians over
   slices, so one slow spell of a shared machine moves one value, not
   the result; the pooled p95 and p99 are in the detail record (the p99
   with at least ten samples beyond it).  The calibration tracks the
   machine only for the process it runs in, so it steadies
   ``in_process`` workloads far better than those whose server runs on
   the other core.
4. After the clock: every response is checked bitwise against
   :func:`repro.serve.engine.solo_summary`; the client's counts are
   cross-checked against the server's ``stats`` counters.  The open-loop
   requests, a set fixed by the seed and the offered rate, are checked in
   this process in calibrated slices, and the recipe's speed over them is
   ``scalar_runs_per_s``; the rest are checked in worker processes.

Every wire line is encoded before its phase's clock starts and parsed
after it stops, so the client does as little as possible while it
shares the machine with the server.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

from benchlib import (
    REPO_ROOT,
    WORK_DIR,
    SpeedGauge,
    median,
    percentile_report,
    proc_tree_cpu_s,
    timed_setup,
)
from streams import ServeWorkload, encode, phase_stream

from repro.serve.dispatcher import FlushPolicy
from repro.serve.request import MechanismRequest

__all__ = ["run_serve_e2e", "verify_responses"]

#: Shares of ``--seconds`` per timed phase, split over ``ROUNDS`` rounds
#: and then into calibrated slices.  Short open-loop slices track the
#: machine's speed closely; a closed-loop slice must stay long next to
#: the time its window takes to fill and drain, or the rate it reads
#: depends on the slice length.
SHARES = {"closed_mixed": 0.25, "closed_truthful": 0.125, "closed_deviant": 0.125, "open": 0.5}
ROUNDS = 4
SLICE_S = {"closed": 0.25, "open": 0.25}
CLOSED_PHASES = ("closed_mixed", "closed_truthful", "closed_deviant")
TIMED_PHASES = CLOSED_PHASES + ("open",)

#: The client: at most two connections (the machine has two cores), each
#: keeping ``WINDOW`` requests outstanding in the closed loops.
CONNECTIONS = 2
WINDOW = 16

#: Requests per set-up warm-up; enough to import and exercise every path.
WARMUP_REQUESTS = 400

#: Closed-loop streams are pre-encoded for this multiple of the rate the
#: warm-up reached (and at least ``_MIN_RPS``), so a much faster server
#: still finds lines to send.  Running out only shortens the window the
#: rate is measured over.
_HEADROOM = 4.0
_MIN_RPS = 2000.0

#: Per-phase drain timeout: a hung server fails the run instead of
#: wedging it.
_PHASE_TIMEOUT_S = 60.0

#: Set-up repetitions per run (median reported).
SETUP_REPEATS = 3

#: Processes that run the after-the-clock bitwise check.
VERIFY_WORKERS = 2

#: ``solo_summary`` calls per calibrated slice of the timed check.
SOLO_SLICE = 100

#: Counters the client cross-checks against its own tallies.
STATS_COUNTERS = ("serve.requests", "serve.errors", "serve.rejected", "mechanism.scalar_fallbacks")


class ServeError(RuntimeError):
    """The server misbehaved at the process or connection level."""


class ServerProcess:
    """A ``python -m repro serve start`` child in its own session."""

    def __init__(self, workload: ServeWorkload, tag: str) -> None:
        self.workload = workload
        os.makedirs(WORK_DIR, exist_ok=True)
        self.port_file = os.path.join(WORK_DIR, f"port-{os.getpid()}-{tag}")
        self.log_path = os.path.join(WORK_DIR, f"server-{os.getpid()}-{tag}.log")
        self.proc: subprocess.Popen[bytes] | None = None

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_s(self) -> float:
        """CPU seconds of the server and its pool workers so far."""
        return proc_tree_cpu_s(self.pid)

    async def close(self) -> None:
        self.stop()

    def spawn(self) -> None:
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["REPRO_PERF"] = "0"
        command = [
            sys.executable, "-m", "repro", "serve", "start",
            "--port", "0",
            "--port-file", self.port_file,
            "--workers", str(self.workload.workers),
        ]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command,
                cwd=REPO_ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    async def wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc is not None and self.proc.poll() is not None:
                raise ServeError(f"server exited early with code {self.proc.returncode}")
            try:
                with open(self.port_file, encoding="utf-8") as fh:
                    text = fh.read().strip()
            except FileNotFoundError:
                text = ""
            if text.endswith(tuple("0123456789")):
                return int(text)
            await asyncio.sleep(0.002)
        raise ServeError("server did not write its port file in time")

    def stop(self, timeout: float = 30.0) -> None:
        """Wait for a shut-down server; kill its whole session otherwise."""
        if self.proc is None:
            return
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        for path in (self.port_file, self.log_path):
            if os.path.exists(path):
                os.unlink(path)

    def kill(self) -> None:
        """SIGKILL the server's session (pool workers included) and reap."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)


class LoopbackServer:
    """The real ``MechanismService`` bound to loopback in this process.

    Client and server share one event loop, so the calibration kernel run
    between slices measures the CPU the server ran on."""

    def __init__(self, workload: ServeWorkload) -> None:
        from repro.serve.service import MechanismService

        self.service = MechanismService(workers=workload.workers)

    async def start(self) -> int:
        await self.service.start()
        return self.service.port

    def cpu_s(self) -> float:
        return time.process_time()

    async def close(self) -> None:
        await self.service.stop()

    def kill(self) -> None:
        """Nothing outlives the event loop; ``asyncio.run`` cancels it."""


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def call(self, message: dict[str, Any]) -> dict[str, Any]:
        self.writer.write(json.dumps(message).encode() + b"\n")
        line = await asyncio.wait_for(self.reader.readline(), _PHASE_TIMEOUT_S)
        if not line:
            raise ServeError(f"connection closed answering {message}")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _connect(port: int, count: int) -> list[Connection]:
    conns = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 20)
        conns.append(Connection(reader, writer))
    return conns


async def closed_loop(
    conns: Sequence[Connection], lines: Sequence[bytes], window: int, seconds: float
) -> dict[str, Any]:
    """Keep ``window`` requests outstanding per connection for ``seconds``,
    then drain.  Returns raw ``(arrival, line)`` pairs."""
    received: list[tuple[float, bytes]] = []
    cursor = 0
    deadline = time.perf_counter() + seconds

    async def drive(conn: Connection) -> None:
        nonlocal cursor
        outstanding = 0
        while outstanding < window and cursor < len(lines):
            conn.writer.write(lines[cursor])
            cursor += 1
            outstanding += 1
        while outstanding:
            line = await conn.reader.readline()
            if not line:
                raise ServeError("server closed a connection mid-phase")
            now = time.perf_counter()
            received.append((now, line))
            outstanding -= 1
            if now < deadline and cursor < len(lines):
                conn.writer.write(lines[cursor])
                cursor += 1
                outstanding += 1

    await asyncio.wait_for(
        asyncio.gather(*(drive(c) for c in conns)), seconds + _PHASE_TIMEOUT_S
    )
    return {
        "sent": cursor,
        "received": received,
        "deadline": deadline,
        "seconds": seconds,
        "exhausted": cursor >= len(lines),
    }


async def open_loop(
    conns: Sequence[Connection], lines: Sequence[bytes], rate: float
) -> dict[str, Any]:
    """Send line ``i`` at ``start + i / rate`` whatever the server does."""
    n = len(lines)
    counts = [len(range(c, n, len(conns))) for c in range(len(conns))]
    received: list[tuple[float, bytes]] = []
    sent_at = [0.0] * n

    async def read(conn: Connection, expected: int) -> None:
        for _ in range(expected):
            line = await conn.reader.readline()
            if not line:
                raise ServeError("server closed a connection mid-phase")
            received.append((time.perf_counter(), line))

    readers = [asyncio.ensure_future(read(c, k)) for c, k in zip(conns, counts)]
    start = time.perf_counter() + 0.005
    try:
        for i, line in enumerate(lines):
            delay = start + i / rate - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            conns[i % len(conns)].writer.write(line)
            sent_at[i] = time.perf_counter()
        await asyncio.wait_for(asyncio.gather(*readers), _PHASE_TIMEOUT_S)
    finally:
        for task in readers:
            task.cancel()
    return {"start": start, "rate": rate, "sent_at": sent_at, "received": received}


def parse_responses(received: Sequence[tuple[float, bytes]]) -> dict[int, tuple[float, dict]]:
    """request_id -> (arrival, message); done after the clock stops."""
    parsed: dict[int, tuple[float, dict]] = {}
    for arrival, line in received:
        msg = json.loads(line)
        rid = msg.get("request_id")
        if isinstance(rid, int):
            parsed[rid] = (arrival, msg)
    return parsed


_COUNT_KEYS = ("missing", "errors", "mismatches", "failed", "checked")


def verify_responses(
    requests: Sequence[MechanismRequest],
    responses: dict[int, dict[str, Any]],
    workers: int = 1,
) -> dict[str, Any]:
    """Check every response bitwise against the solo scalar recipe.

    A missing response, an error response and a summary that differs
    from :func:`~repro.serve.engine.solo_summary` in any field each count
    as one failed operation.  With ``workers > 1`` the chunks are checked
    in that many forked processes (the clock has stopped and the server
    is gone).  Forked, not spawned: a spawn context starts a
    ``multiprocessing`` resource tracker that lives until this process
    exits, unwaited.
    """
    # Strided chunks, so every chunk holds the same mix of request kinds.
    chunks = min(4 * max(1, workers), max(1, len(requests)))
    parts_in = [list(requests[c::chunks]) for c in range(chunks)]
    parts_resp = [{r.request_id: responses.get(r.request_id) for r in part} for part in parts_in]
    if workers > 1 and len(parts_in) > 1:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            parts = list(pool.map(_verify_chunk, parts_in, parts_resp))
    else:
        parts = [_verify_chunk(p, r) for p, r in zip(parts_in, parts_resp)]
    total: dict[str, Any] = {key: sum(p[key] for p in parts) for key in _COUNT_KEYS}
    total["attempted"] = len(requests)
    total["examples"] = [e for p in parts for e in p["examples"]][:3]
    return total


def _verify_chunk(
    requests: Sequence[MechanismRequest],
    responses: dict[int, dict[str, Any] | None],
    gauge: SpeedGauge | None = None,
) -> dict[str, Any]:
    """Bitwise check of one chunk.  With a ``gauge``, the ``solo_summary``
    calls are also timed in slices of ``SOLO_SLICE`` and
    ``scalar_seconds`` is in reference seconds."""
    from repro.serve.engine import solo_summary

    missing = errors = mismatches = 0
    examples: list[dict[str, Any]] = []
    scalar_seconds = slice_seconds = 0.0
    in_slice = 0
    for request in requests:
        response = responses.get(request.request_id)
        if response is None:
            missing += 1
            continue
        if not response.get("ok"):
            errors += 1
            if len(examples) < 3:
                examples.append({"request_id": request.request_id, "error": response.get("error")})
            continue
        started = time.perf_counter()
        expected = solo_summary(request)
        slice_seconds += time.perf_counter() - started
        in_slice += 1
        if gauge is not None and in_slice == SOLO_SLICE:
            scalar_seconds += slice_seconds / gauge.mark()
            slice_seconds, in_slice = 0.0, 0
        if response.get("summary") != expected:
            mismatches += 1
            if len(examples) < 3:
                examples.append(
                    {"request_id": request.request_id, "got": response.get("summary"), "expected": expected}
                )
    if in_slice:
        scalar_seconds += slice_seconds / (gauge.mark() if gauge is not None else 1.0)
    return {
        "attempted": len(requests),
        "missing": missing,
        "errors": errors,
        "mismatches": mismatches,
        "failed": missing + errors + mismatches,
        "checked": len(requests) - missing - errors,
        "scalar_seconds": scalar_seconds,
        "examples": examples,
    }


async def _stats(conn: Connection) -> dict[str, float]:
    reply = await conn.call({"op": "stats"})
    counters = reply.get("stats", {}).get("counters", {})
    return {name: float(counters.get(name, 0.0)) for name in STATS_COUNTERS}


async def _setup_once(
    workload: ServeWorkload, tag: str, warmup_lines: Sequence[bytes]
) -> tuple[ServerProcess, list[Connection], float, dict[str, Any]]:
    """Spawn -> port file -> ping -> warm-up traffic done, timed."""
    server = ServerProcess(workload, tag)
    started = time.perf_counter()
    server.spawn()
    try:
        conns = await _connect(await server.wait_port(), CONNECTIONS)
        pong = await conns[0].call({"op": "ping"})
        if not pong.get("pong"):
            raise ServeError(f"bad ping reply {pong}")
        warm = await closed_loop(conns, warmup_lines, WINDOW, _PHASE_TIMEOUT_S)
        setup_s = time.perf_counter() - started
    except BaseException:
        server.kill()
        raise
    return server, conns, setup_s, warm


async def _shutdown(server: ServerProcess | LoopbackServer, conns: Sequence[Connection]) -> None:
    try:
        await conns[0].call({"op": "shutdown"})
    finally:
        for conn in conns:
            await conn.close()
        await server.close()


async def loopback_setup(workload: ServeWorkload, seed: int) -> None:
    """Start the in-process service, ping it, warm it up, stop it: the
    body of one ``in_process`` set-up, run in a fresh interpreter."""
    server = LoopbackServer(workload)
    conns = await _connect(await server.start(), CONNECTIONS)
    pong = await conns[0].call({"op": "ping"})
    if not pong.get("pong"):
        raise ServeError(f"bad ping reply {pong}")
    warmup = encode(phase_stream(workload, seed, "warmup", WARMUP_REQUESTS))
    await closed_loop(conns, warmup, WINDOW, _PHASE_TIMEOUT_S)
    await _shutdown(server, conns)


def measure_loopback_setup(workload: ServeWorkload, seed: int) -> tuple[float, float]:
    """Fresh interpreter -> imports -> service start -> ping -> warm-up;
    returns wall seconds and slowness (see :func:`benchlib.timed_setup`)."""
    return timed_setup(
        "import asyncio, serve_e2e\n"
        "from streams import SERVE_WORKLOADS\n"
        f"asyncio.run(serve_e2e.loopback_setup(SERVE_WORKLOADS[{workload.name!r}], {seed}))\n"
    )


async def _drive(
    workload: ServeWorkload, seed: int, seconds: float, gauge: SpeedGauge
) -> dict[str, Any]:
    """Set up, then ``ROUNDS`` rounds of every timed phase.

    Interleaving the phases spreads each metric over the whole run, so a
    machine whose speed drifts over seconds shifts all of them alike
    instead of whichever phase happened to run during a slow spell.  The
    gauge is marked right before and right after every timed stretch.
    """
    warmup = phase_stream(workload, seed, "warmup", WARMUP_REQUESTS)
    warmup_lines = encode(warmup)
    setups: list[tuple[float, float]] = []
    results: dict[str, list[dict[str, Any]]] = {phase: [] for phase in TIMED_PHASES}
    requests: dict[str, list[MechanismRequest]] = {phase: [] for phase in TIMED_PHASES}
    server: ServerProcess | LoopbackServer | None = None
    try:
        if workload.in_process:
            setups = [measure_loopback_setup(workload, seed) for _ in range(SETUP_REPEATS)]
            server = LoopbackServer(workload)
            conns = await _connect(await server.start(), CONNECTIONS)
            warm = await closed_loop(conns, warmup_lines, WINDOW, _PHASE_TIMEOUT_S)
        else:
            for attempt in range(SETUP_REPEATS):
                gauge.mark()
                server, conns, setup_s, warm = await _setup_once(workload, str(attempt), warmup_lines)
                setups.append((setup_s, gauge.mark()))
                if attempt < SETUP_REPEATS - 1:
                    await _shutdown(server, conns)
        results["warmup"], requests["warmup"] = [warm], warmup
        before = await _stats(conns[0])
        closed_rps = max(_MIN_RPS, _HEADROOM * closed_loop_rate(warm))

        for round_ in range(ROUNDS):
            for phase in TIMED_PHASES:
                budget = seconds * SHARES[phase] / ROUNDS
                slices = max(1, round(budget / SLICE_S["open" if phase == "open" else "closed"]))
                per_open = max(1, round(budget / slices * workload.rate))
                if phase == "open":
                    count = per_open * slices
                else:
                    count = int(budget * closed_rps) + 4 * WINDOW * slices
                stream = phase_stream(workload, seed, phase, count, round_)
                lines = encode(stream)
                cursor = 0
                gauge.mark()
                for _ in range(slices):
                    if phase == "open":
                        cpu_before = server.cpu_s()
                        result = await open_loop(conns, lines[cursor : cursor + per_open], workload.rate)
                        result["server_cpu_s"] = server.cpu_s() - cpu_before
                        result["requests"] = stream[cursor : cursor + per_open]
                        sent = per_open
                    else:
                        result = await closed_loop(conns, lines[cursor:], WINDOW, budget / slices)
                        sent = result["sent"]
                    result["slowness"] = gauge.mark()
                    result["cpu_slowness"] = gauge.cpu_slowness
                    requests[phase].extend(stream[cursor : cursor + sent])
                    results[phase].append(result)
                    cursor += sent

        after = await _stats(conns[0])
        await _shutdown(server, conns)
        server = None
    finally:
        if server is not None:
            server.kill()
    return {
        "setups": setups,
        "results": results,
        "requests": requests,
        "stats": (before, after),
    }


def open_loop_samples(result: dict[str, Any], arrivals: dict[int, float]) -> tuple[list[float], list[float]]:
    """Due-to-response latencies and generator lateness of one open-loop
    round, in ms."""
    latencies, lateness = [], []
    for i, request in enumerate(result["requests"]):
        due = result["start"] + i / result["rate"]
        lateness.append((result["sent_at"][i] - due) * 1e3)
        if request.request_id in arrivals:
            latencies.append((arrivals[request.request_id] - due) * 1e3)
    return latencies, lateness


def closed_loop_rate(result: dict[str, Any]) -> float:
    """Steady-state ok responses per second inside one round's window:
    counted from the first response on, so the pipeline's fill time at
    the window's start is not charged to the server."""
    arrivals = sorted(
        arrival
        for arrival, msg in parse_responses(result["received"]).values()
        if arrival <= result["deadline"] and msg.get("ok")
    )
    if len(arrivals) < 2:
        return 0.0
    return (len(arrivals) - 1) / (arrivals[-1] - arrivals[0])


def run_serve_e2e(workload: ServeWorkload, seed: int, seconds: float) -> dict[str, Any]:
    """One end-to-end run: metrics, failure accounting and a detail record."""
    gauge = SpeedGauge()
    raw = asyncio.run(_drive(workload, seed, seconds, gauge))
    results, requests = raw["results"], raw["requests"]

    # -- after the clock: parse, verify, cross-check -------------------
    parsed: dict[int, tuple[float, dict]] = {}
    for rounds in results.values():
        for result in rounds:
            parsed.update(parse_responses(result["received"]))
    responses = {rid: msg for rid, (_, msg) in parsed.items()}
    arrivals = {rid: arrival for rid, (arrival, _) in parsed.items()}
    # The open-loop requests are checked here, timed against the gauge;
    # everything else in worker processes.
    others = [r for phase in ("warmup",) + CLOSED_PHASES for r in requests[phase]]
    check = verify_responses(others, responses, workers=VERIFY_WORKERS)
    gauge.mark()
    solo = _verify_chunk(requests["open"], responses, gauge)
    for key in _COUNT_KEYS:
        check[key] += solo[key]
    check["attempted"] += len(requests["open"])
    check["examples"] = (check["examples"] + solo["examples"])[:3]
    scalar_rate = solo["checked"] / solo["scalar_seconds"] if solo["scalar_seconds"] > 0 else 0.0

    before, after = raw["stats"]
    timed = [r for phase in TIMED_PHASES for r in requests[phase]]
    server_counts = {name: after[name] - before[name] for name in after}
    stats_mismatch = int(
        abs(server_counts["serve.requests"] - len(timed))
        + server_counts["serve.errors"]
        + server_counts["serve.rejected"]
        + abs(server_counts["mechanism.scalar_fallbacks"] - sum(r.topology == "tree" for r in timed))
    )

    # Times are in reference seconds (wall / slowness); rates likewise.
    # Rates, p50 and CPU per request are medians over slices: a slow
    # spell of the machine moves one value, not the result.
    # The dispatcher's batch window is a wall-clock timer the machine's
    # speed does not stretch, and at the open loop's rate almost every
    # request waits it out alone: it is taken out of each latency before
    # dividing by the slowness and added back after.
    window_ms = FlushPolicy().max_wait_s * 1e3
    # The pooled percentiles in the detail record take all slices: a p99
    # needs ten samples beyond it.
    slice_p50, slice_p95, slice_cpu_ms = [], [], []
    latencies, lateness, wall_latencies = [], [], []
    for result in results["open"]:
        lat, late_ = open_loop_samples(result, arrivals)
        wall_latencies.extend(lat)
        lat = [(ms - window_ms) / result["slowness"] + window_ms for ms in lat]
        report = percentile_report(lat)
        slice_p50.append(report["p50"])
        slice_p95.append(report["p95"])
        latencies.extend(lat)
        lateness.extend(late_)
        slice_cpu_ms.append(result["server_cpu_s"] * 1e3 / result["cpu_slowness"] / len(result["requests"]))
    late, pooled = percentile_report(lateness), percentile_report(latencies)
    wall = percentile_report(wall_latencies)
    latency = {"p50": median(slice_p50), "p95": median(slice_p95)}
    rates = {
        p: median(closed_loop_rate(r) * r["slowness"] for r in results[p]) for p in CLOSED_PHASES
    }
    cpu_ms = median(slice_cpu_ms)

    # Problems reject the run; warnings only annotate it.
    problems, warnings = [], []
    if stats_mismatch:
        problems.append(f"server stats disagree with client counts: {server_counts}")
    exhausted = [p for p in CLOSED_PHASES if any(r["exhausted"] for r in results[p])]
    if exhausted:
        warnings.append(f"closed-loop stream ran out early in {exhausted}")
    if not pooled["p99_trusted"]:
        warnings.append(f"only {pooled['n']} open-loop samples; p99 untrusted")
    # In process, the generator shares the server's event loop, so its
    # lateness is the server's own busy time, already inside the
    # due-time latency; only a separate server makes lateness an error.
    if not workload.in_process and late["p99"] > 0.5 * wall["p99"]:
        problems.append(
            f"generator ran late (p99 {late['p99']:.3f} ms) against latency p99 {wall['p99']:.3f} ms"
        )

    failed = check["failed"] + stats_mismatch
    setups = [w / slowness for w, slowness in raw["setups"]]
    metrics = {
        "setup_s": (median(setups), "s"),
        "throughput_rps": (rates["closed_mixed"], "1/s"),
        "latency_p50_ms": (latency["p50"], "ms"),
        "latency_p95_ms": (latency["p95"], "ms"),
        "server_cpu_ms_per_req": (cpu_ms, "ms"),
        "truthful_runs_per_s": (rates["closed_truthful"], "1/s"),
        "deviant_runs_per_s": (rates["closed_deviant"], "1/s"),
        "scalar_runs_per_s": (scalar_rate, "1/s"),
    }
    detail = {
        "setups_s": {"wall": [w for w, _ in raw["setups"]], "reference": setups},
        "slowness": gauge.report(),
        "latency_ms": pooled,
        "latency_ms_wall": wall,
        "closed_loop_rps_wall": {
            p: median(closed_loop_rate(r) for r in results[p]) for p in CLOSED_PHASES
        },
        "client.late_ms_p99": late["p99"],
        "closed_loop_sent": {p: len(requests[p]) for p in CLOSED_PHASES},
        "open_loop": {"rate": workload.rate, "requests": len(requests["open"]), "slices": len(results["open"])},
        "verification": check,
        "server_counters": server_counts,
        "failed_share": failed / max(1, check["attempted"]),
        "problems": problems,
        "warnings": warnings,
    }
    return {
        "metrics": metrics,
        "attempted": check["attempted"],
        "failed": failed,
        "valid": not problems,
        "detail": detail,
    }
