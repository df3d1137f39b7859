"""Deterministic request streams for the serve workloads.

Every stream is a pure function of the benchmark seed: the program only
ever sees the generated requests.  Each phase of a run draws its request
seeds from its own disjoint block, so no two requests of a run (or of two
runs with different seeds) share a recipe, and a request cache in the
server could not turn the benchmark into a cache benchmark.  A
request's id is its recipe seed, unique within a run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

from benchlib import PHASE_STRIDE, seed_block

from repro.serve.client import mixed_workload
from repro.serve.request import MechanismRequest

__all__ = ["SERVE_WORKLOADS", "ServeWorkload", "PHASES", "encode", "phase_stream"]

#: Seeds one round of one phase owns.
ROUND_STRIDE = 100_000

#: Phase name -> seed block index.
PHASES = {"warmup": 0, "closed_mixed": 1, "closed_truthful": 2, "closed_deviant": 3, "open": 4}

#: Deviant specs the all-deviant stream rotates through: two kinds the
#: stacked arrays express and two that ride the lane mechanisms.  Trees
#: host only rate/speed deviations.
_DEVIANT_SPECS = ("1:misbid", "2:overcharge:1.5", "1:accuse", "2:contradict")
_TREE_DEVIANT_SPECS = ("1:misbid", "1:slow:2")


@dataclass(frozen=True)
class ServeWorkload:
    """One serve workload: how the server runs and what traffic it sees."""

    name: str
    workers: int
    topologies: tuple[str, ...]
    sizes: tuple[int, ...]
    #: Open-loop offered rate (requests/s).  An open loop gets small
    #: batches, so each request costs the server more CPU than in the
    #: closed loop.  On a 2-core VM the seed served ~1.5k rps closed-loop
    #: on serve_chain_star and ~0.5k on serve_tree_pool, and the VM's
    #: speed drifted by up to 2x; the rates below keep the server (and
    #: the pool worker) under ~60% busy even in a slow spell.  In process
    #: (~1.1 ms of CPU per request) 150 rps keeps the shared core under
    #: ~35% busy in a 2x slow spell, where queueing stays nearly linear.
    rate: float
    #: Run the real ``MechanismService`` on loopback inside the benchmark
    #: process instead of spawning ``python -m repro serve start``.
    in_process: bool = False


SERVE_WORKLOADS = {
    "serve_loopback": ServeWorkload(
        "serve_loopback",
        workers=0,
        topologies=("chain", "star"),
        sizes=(4, 6),
        rate=150.0,
        in_process=True,
    ),
    "serve_chain_star": ServeWorkload(
        "serve_chain_star", workers=0, topologies=("chain", "star"), sizes=(4, 6), rate=300.0
    ),
    "serve_tree_pool": ServeWorkload(
        "serve_tree_pool",
        workers=1,
        topologies=("chain", "star", "tree"),
        sizes=(8, 16),
        rate=200.0,
    ),
}


def _deviant_stream(
    count: int, base: int, topologies: Sequence[str], sizes: Sequence[int]
) -> list[MechanismRequest]:
    combos = [(t, m) for t in topologies for m in sizes]
    requests = []
    for i in range(count):
        topology, m = combos[i % len(combos)]
        specs = _TREE_DEVIANT_SPECS if topology == "tree" else _DEVIANT_SPECS
        requests.append(
            MechanismRequest(
                topology=topology, m=m, seed=base + i, deviant=specs[(i // len(combos)) % len(specs)]
            ).validate()
        )
    return requests


def phase_stream(
    workload: ServeWorkload, seed: int, phase: str, count: int, round_: int = 0
) -> list[MechanismRequest]:
    """``count`` requests of one round of one phase, ids = seeds."""
    if count > ROUND_STRIDE or not 0 <= round_ < PHASE_STRIDE // ROUND_STRIDE:
        raise ValueError(f"a round holds at most {ROUND_STRIDE} requests")
    base = seed_block(seed, PHASES[phase]) + round_ * ROUND_STRIDE
    if phase == "closed_deviant":
        requests = _deviant_stream(count, base, workload.topologies, workload.sizes)
    else:
        requests = mixed_workload(
            count,
            seed=base,
            sizes=workload.sizes,
            topologies=workload.topologies,
            deviants=phase != "closed_truthful",
        )
    return [replace(r, request_id=r.seed) for r in requests]


def encode(requests: Sequence[MechanismRequest]) -> list[bytes]:
    """Wire lines, encoded before any clock starts."""
    return [json.dumps(r.to_wire()).encode() + b"\n" for r in requests]
