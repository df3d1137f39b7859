"""Shared helpers for the perfbench workloads.

Percentiles come from raw per-sample lists (nearest rank over the sorted
samples), never from the program's bucketed ``LatencyHistogram``: a
quarter-octave bucket is ~19% wide, so a gain that stays inside one
bucket would not show.  CPU is read from ``/proc`` for a whole process
tree, so a server's pool workers are charged to it.

Timings are reported in *reference seconds*: every timed slice is
bracketed by a fixed calibration kernel (:class:`SpeedGauge`), and its
wall time is divided by how slow the kernel ran around it.  On a shared
machine whose speed swings by ~2x for seconds to minutes at a time, this
keeps a run's numbers from depending on which state it happened to hit.
"""

from __future__ import annotations

import ast
import math
import os
import json
import pickle
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Iterable, Sequence

__all__ = [
    "REPO_ROOT",
    "WORK_DIR",
    "SpeedGauge",
    "calibration_kernel_s",
    "median",
    "percentile",
    "percentile_report",
    "proc_tree_cpu_s",
    "machine_stamp",
    "seed_block",
    "stop_children",
    "timed_setup",
]

#: The checkout root: perfbench/ lives directly under it.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch files (port files, server logs) stay inside the checkout.
WORK_DIR = os.path.join(REPO_ROOT, ".perfbench_work")

#: Seeds one benchmark seed owns, and one phase (block) within it.
SEED_STRIDE = 10_000_000
PHASE_STRIDE = 1_000_000


def seed_block(seed: int, block: int) -> int:
    """First recipe seed of phase ``block`` under benchmark ``seed``.

    Blocks are disjoint, so no two phases of a run (or of two runs with
    different seeds) share a recipe."""
    return seed * SEED_STRIDE + block * PHASE_STRIDE


# -- machine-speed calibration ---------------------------------------------

#: The kernel's inputs: a generated module to parse and compile, and
#: records for the pure-Python pickler.  Both are fixed, so the kernel
#: does the same work on every call and never touches the program.
_KERNEL_SOURCE = "".join(
    f"def f{i}(x, y={i}):\n    s = [x * k + y for k in range({i % 7 + 2})]\n"
    f"    return {{'k': s, 'n': len(s), 'tag': 'f{i}'}} if x else None\n\n"
    for i in range(20)
)
_KERNEL_DATA = [
    {"id": i, "w": [((i * 7 + k) % 13) / 13 for k in range(9)], "name": f"n{i}"} for i in range(60)
]

#: The kernel's time (median of three calls) in the fast state of a
#: 2-vCPU Xeon VM; 1 reference second is 1 s on that machine when fast.
REFERENCE_KERNEL_S = 0.004


def _kernel_times() -> tuple[float, float]:
    """Median wall and CPU seconds of three calls of the calibration kernel.

    Parsing, compiling and pure-Python pickling churn objects and code
    much like the program's scalar paths, so the kernel slows down by
    about as much as the program does when the machine does.
    """
    wall, cpu = [], []
    for _ in range(3):
        started, cpu_started = time.perf_counter(), time.process_time()
        compile(ast.parse(_KERNEL_SOURCE), "<calibration>", "exec")
        pickle._loads(pickle._dumps(_KERNEL_DATA))
        wall.append(time.perf_counter() - started)
        cpu.append(time.process_time() - cpu_started)
    return statistics.median(wall), statistics.median(cpu)


def calibration_kernel_s() -> float:
    """Median wall seconds of three calls of the calibration kernel."""
    return _kernel_times()[0]


class SpeedGauge:
    """Machine slowness between marks, from the calibration kernel.

    ``mark()`` runs the kernel and returns the mean of this and the
    previous kernel time over :data:`REFERENCE_KERNEL_S`: how much slower
    than the reference the machine ran across the slice since the last
    mark.  Divide a slice's wall seconds by it to get reference seconds.

    ``cpu_slowness`` is the same ratio from the kernel's CPU time, set by
    each ``mark()``.  Divide CPU seconds by it: time the host takes the
    vCPU away slows the wall clock but is not charged as CPU time.
    """

    def __init__(self) -> None:
        wall, cpu = _kernel_times()
        self.samples, self.cpu_samples = [wall], [cpu]
        self.cpu_slowness = 1.0

    def mark(self) -> float:
        wall, cpu = _kernel_times()
        self.samples.append(wall)
        self.cpu_samples.append(cpu)
        self.cpu_slowness = (self.cpu_samples[-2] + cpu) / (2 * REFERENCE_KERNEL_S)
        return (self.samples[-2] + wall) / (2 * REFERENCE_KERNEL_S)

    def report(self) -> dict[str, float]:
        """Spread of the slowness samples, for the detail record."""
        slowness = [s / REFERENCE_KERNEL_S for s in self.samples]
        cpu = [s / REFERENCE_KERNEL_S for s in self.cpu_samples]
        return {
            "n": len(slowness),
            **{f"p{q}": percentile(slowness, q / 100) for q in (10, 50, 90)},
            "cpu_p50": percentile(cpu, 0.5),
        }


_SETUP_SCRIPT = """
import json, sys, time
sys.path[:0] = [{bench!r}, {src!r}]
from benchlib import calibration_kernel_s
started = time.perf_counter()
before = calibration_kernel_s()
kernel_s = time.perf_counter() - started
{body}
started = time.perf_counter()
after = calibration_kernel_s()
kernel_s += time.perf_counter() - started
print(json.dumps([before, after, kernel_s]))
"""


def timed_setup(body: str) -> tuple[float, float]:
    """Run ``body`` in a fresh interpreter, from spawn to exit.

    The child runs the calibration kernel before and after ``body``, so
    the slowness is measured on the CPU the set-up ran on.  Returns the
    wall seconds without the kernel's own time, and that slowness."""
    script = _SETUP_SCRIPT.format(
        bench=os.path.dirname(os.path.abspath(__file__)),
        src=os.path.join(REPO_ROOT, "src"),
        body=body,
    )
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT, check=True, timeout=120, capture_output=True, text=True,
    )
    wall = time.perf_counter() - started
    before, after, kernel_s = json.loads(out.stdout.strip().splitlines()[-1])
    return wall - kernel_s, (before + after) / (2 * REFERENCE_KERNEL_S)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of raw samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def percentile_report(samples: Sequence[float]) -> dict[str, Any]:
    """p50/p95/p99 of raw samples with their sample count.

    ``p99_trusted`` is false when fewer than ten samples lie beyond the
    99th percentile, i.e. with fewer than 1,000 samples.
    """
    n = len(samples)
    beyond = n - math.ceil(0.99 * n) if n else 0
    return {
        "n": n,
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "p99": percentile(samples, 0.99),
        "beyond_p99": beyond,
        "p99_trusted": beyond >= 10,
    }


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            raw = fh.read()
    except OSError:
        return None
    # Field 2 (comm) may hold spaces; everything after its ')' splits cleanly.
    return raw[raw.rfind(")") + 2 :].split()


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def proc_tree_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` and its live descendants,
    plus what its already-reaped children used."""
    ticks = 0
    stack = [pid]
    while stack:
        current = stack.pop()
        fields = _stat_fields(current)
        if fields is None:
            continue
        # stat fields 14-17 (utime, stime, cutime, cstime) sit at 11..14.
        ticks += int(fields[11]) + int(fields[12])
        if current == pid:
            ticks += int(fields[13]) + int(fields[14])
        stack.extend(_children(current))
    return ticks / os.sysconf("SC_CLK_TCK")


def stop_children(timeout: float = 10.0) -> list[int]:
    """Terminate and reap every child this process still has.

    Every workload already waits for what it starts; this is the last
    guard, run on every path out of a run, so no process outlives it.
    Returns the pids it had to stop."""
    stray = _children(os.getpid())
    for pid in stray:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in stray:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
                break
            time.sleep(0.01)
    return stray


def machine_stamp() -> dict[str, Any]:
    """``nproc`` plus the program's own machine fingerprint, so results
    from different machines are never compared."""
    from repro.obs.bench import machine_fingerprint

    return {"nproc": os.cpu_count(), "machine": machine_fingerprint()}
