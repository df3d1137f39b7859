"""Wire fuzzing: one connection, valid run lines among malformed ones.

A real :class:`~repro.serve.service.MechanismService` on loopback gets
one connection carrying a random mix of valid run requests and broken
lines (bad JSON, a non-object, an unknown op, ``"m": true``, an
out-of-range deviant param, an unknown topology).  Three properties:

- every line gets exactly one response;
- every valid request's summary equals :func:`solo_summary`, whatever
  its neighbours in the flush are;
- the folded ``mechanism.*``/``ledger.*`` counter deltas equal a solo
  lane loop over the valid requests (``mechanism.scalar_fallbacks`` is
  engine overhead a solo caller never counts, so it is left out).

Inline serving is fuzzed; one fixed example runs behind one worker
process.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import collecting
from repro.serve.engine import solo_summary
from repro.serve.request import MechanismRequest
from repro.serve.service import MechanismService

CHAIN_STAR_KINDS = (
    "shed",
    "overcharge:1.5",
    "misbid",
    "slow:2.0",
    "contradict",
    "miscompute",
    "tamper",
    "accuse",
)
TREE_KINDS = ("misbid", "slow:2.0")

#: Broken lines; ``{id}`` is replaced by the line's index where the
#: service can echo it.
MALFORMED = (
    "{{not json",
    "[1, 2, 3]",
    '{{"op": "warp", "request_id": {id}}}',
    '{{"op": "run", "m": true, "request_id": {id}}}',
    '{{"op": "run", "m": 3, "deviant": "1:misbid:0.0001", "request_id": {id}}}',
    '{{"op": "run", "topology": "ring", "request_id": {id}}}',
)


@st.composite
def _run_line(draw) -> dict:
    topology = draw(st.sampled_from(("chain", "star", "tree")))
    m = draw(st.integers(1, 4))
    msg = {"op": "run", "topology": topology, "m": m, "seed": draw(st.integers(0, 99))}
    kinds = TREE_KINDS if topology == "tree" else CHAIN_STAR_KINDS
    kind = draw(st.none() | st.sampled_from(kinds))
    if kind is not None:
        msg["deviant"] = f"{draw(st.integers(1, m))}:{kind}"
    return msg


_LINE = st.one_of(_run_line(), st.sampled_from(MALFORMED))


def _encode(lines: list) -> list[bytes]:
    out = []
    for i, line in enumerate(lines):
        if isinstance(line, dict):
            out.append(json.dumps({**line, "request_id": i}).encode())
        else:
            out.append(line.format(id=i).encode())
    return out


async def _exchange(wire: list[bytes], workers: int) -> list[dict]:
    """Send every line on one connection; read every reply until EOF."""
    service = MechanismService(port=0, workers=workers)
    await service.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        writer.write(b"".join(line + b"\n" for line in wire))
        await writer.drain()
        writer.write_eof()
        replies = [json.loads(line) for line in (await reader.read()).splitlines()]
        writer.close()
        await writer.wait_closed()
        return replies
    finally:
        await service.stop()


def _protocol_counters(registry) -> dict[str, float]:
    return {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith(("mechanism.", "ledger."))
        and name != "mechanism.scalar_fallbacks"
    }


def _check(lines: list, workers: int = 0) -> None:
    wire = _encode(lines)
    valid = {
        i: MechanismRequest.from_wire({**line, "request_id": i})
        for i, line in enumerate(lines)
        if isinstance(line, dict)
    }
    with collecting() as served:
        replies = asyncio.run(_exchange(wire, workers))
    with collecting() as solo:
        for i in sorted(valid):
            with collecting():
                solo_summary(valid[i], engine="lane")

    # Exactly one response per line: the id-less ones answer the lines
    # the service cannot attribute (bad JSON, a non-object).
    assert len(replies) == len(lines)
    by_id = {reply["request_id"]: reply for reply in replies if "request_id" in reply}
    assert len(by_id) + sum(1 for r in replies if "request_id" not in r) == len(lines)
    for i, line in enumerate(lines):
        reply = by_id.get(i)
        if i in valid:
            assert reply is not None and reply["ok"], reply
            assert reply["summary"] == solo_summary(valid[i])
        else:
            assert (reply is None) == (line in MALFORMED[:2])
            assert reply is None or (reply["ok"] is False and reply["error"])
    anonymous = [r for r in replies if "request_id" not in r]
    assert all(r["ok"] is False for r in anonymous)
    assert len(anonymous) == sum(1 for line in lines if line in MALFORMED[:2])
    assert _protocol_counters(served) == _protocol_counters(solo)


@settings(max_examples=25, deadline=None)
@given(st.lists(_LINE, min_size=1, max_size=10))
def test_wire_mix_inline(lines):
    _check(lines)


def test_wire_mix_behind_one_worker():
    lines = [
        {"op": "run", "topology": "chain", "m": 4, "seed": 1, "deviant": "2:shed"},
        MALFORMED[0],
        {"op": "run", "topology": "star", "m": 3, "seed": 2},
        MALFORMED[3],
        {"op": "run", "topology": "tree", "m": 3, "seed": 3, "deviant": "1:slow:2.0"},
        MALFORMED[4],
        {"op": "run", "topology": "chain", "m": 4, "seed": 4},
        MALFORMED[1],
        {"op": "run", "topology": "star", "m": 3, "seed": 5, "deviant": "3:accuse"},
        MALFORMED[2],
        MALFORMED[5],
    ]
    _check(lines, workers=1)
