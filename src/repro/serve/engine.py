"""Execution engine behind the service: requests in, rows out.

The service executes mechanism *rows* through the row engine,
:mod:`repro.mechanism.rows`, which owns the whole recipe: network draw,
agents, mechanism-class choice, and the routing of each row onto the
stacked path, the lane mechanisms (traced rows) or the tree mechanism.  This module only maps requests
onto rows and rows back onto responses:

- :func:`solo_summary` is the reference recipe —
  :func:`~repro.mechanism.rows.solo_row` under the request's seed, what
  a caller who never heard of the service would run.  The service's
  equality contract is stated against this function.  Trees run the
  scalar DLS-T mechanism (the paper's [9] sibling) on a random rooted
  tree of ``m + 1`` nodes.
- :func:`run_group_rows` executes one *compatible group* (requests
  sharing a :attr:`~repro.serve.request.MechanismRequest.batch_key`)
  as one :func:`~repro.mechanism.rows.run_rows` call: chain and star
  rows, every deviant kind included, take the stacked path (served
  requests are never traced, so they never need the lane mechanisms),
  tree rows the scalar tree mechanism (an honest
  ``mechanism.scalar_fallbacks`` increment each).  It returns, alongside
  the responses, one registry-snapshot *delta* per row — unmerged — so
  the caller (the dispatcher's event loop, even when the rows ran in a
  pool worker) can fold them in request order: the same per-run float
  fold a solo loop over these requests would produce.
- :func:`group_by_key` partitions a flush into those groups.  The
  dispatcher submits each group to its executor and folds the returned
  deltas in request order; it is the only composition of these pieces.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.mechanism.rows import run_rows, solo_row
from repro.serve.request import MechanismRequest, MechanismResponse

__all__ = ["group_by_key", "run_group_rows", "solo_summary"]


def solo_summary(request: MechanismRequest, engine: str = "scalar") -> dict[str, Any]:
    """The reference scalar recipe for one request.

    ``engine="lane"`` swaps in the batch engine's crypto-free lane
    subclass — same protocol code, bitwise-equal output.  Trees have one
    engine (the scalar tree mechanism), so the parameter is a no-op
    there.
    """
    fields, _events = solo_row(
        request.topology,
        request.m,
        request.seed,
        request.audit_probability,
        request.deviant,
        engine=engine,
    )
    return {"topology": request.topology, "m": request.m, "seed": request.seed, **fields}


def run_group_rows(
    requests: Sequence[MechanismRequest],
) -> tuple[list[MechanismResponse], list[dict[str, Any]]]:
    """Execute one compatible group; return responses and per-row deltas.

    All requests must share a batch key.  Responses come back in request
    order, each bitwise-equal to :func:`solo_summary` of its request;
    ``served`` metadata records which path (``array``, ``lane`` or
    ``scalar`` for trees) the row rode and the flush size it was
    coalesced into.

    The second return value holds one registry-snapshot delta per row
    (index-aligned with the responses): the protocol counters that row's
    solo run would have contributed, **not yet merged anywhere**.  The
    caller folds them in request order — on the event loop, even when
    this function ran in a pool worker — so the ``mechanism.*`` /
    ``ledger.*`` counter totals accumulate in exactly the order a solo
    loop over the requests would produce.  Engine-level overhead that is
    not part of the solo recipe (perf spans, the per-tree-row
    ``mechanism.scalar_fallbacks`` count) lands in the *active* registry
    instead: live when run in-process, the worker's shipped delta when
    pooled.
    """
    if not requests:
        return [], []
    keys = {r.batch_key for r in requests}
    if len(keys) > 1:
        raise ValueError(f"run_group_rows requires one batch key, got {sorted(keys)}")
    topology, m, q = requests[0].batch_key
    rows = run_rows(
        topology,
        m,
        q,
        [r.seed for r in requests],
        [r.deviant for r in requests],
        span="serve.flush",
    )
    responses = [
        MechanismResponse(
            ok=True,
            summary={"topology": topology, "m": m, "seed": request.seed, **fields},
            request_id=request.request_id,
            served={"engine": engine, "batch_size": len(requests)},
        )
        for request, fields, engine in zip(requests, rows.fields, rows.engines)
    ]
    return responses, rows.snapshots


def group_by_key(
    requests: Sequence[MechanismRequest],
) -> list[list[int]]:
    """Partition request indices into compatible groups, first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for i, request in enumerate(requests):
        groups.setdefault(request.batch_key, []).append(i)
    return list(groups.values())
