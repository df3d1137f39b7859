"""Crash-fault-tolerant protocol runtime.

The mechanism layer assumes obedient infrastructure: messages arrive
intact and processors stay up.  This package is where that assumption is
relaxed — a simulated lossy transport over the signed protocol messages
(:mod:`repro.runtime.transport`), sim-time timeout/retry/backoff policy
(:mod:`repro.runtime.retry`), a resilient session with crash detection
and mid-run re-allocation over survivors (:mod:`repro.runtime.session`),
and a checkpoint journal for the experiment runner
(:mod:`repro.runtime.checkpoint`).
"""

from repro.runtime.checkpoint import CheckpointJournal, task_key
from repro.runtime.retry import RetryExhausted, RetryPolicy, backoff_schedule, retry_async
from repro.runtime import session
from repro.runtime.session import ResilientOutcome, run_resilient
from repro.runtime.transport import (
    Delivery,
    LossyTransport,
    TransportPolicy,
    TransportScript,
    corrupt_signature,
)

__all__ = [
    "BYZANTINE_KINDS",
    "CheckpointJournal",
    "Delivery",
    "INFRASTRUCTURE_KINDS",
    "LossyTransport",
    "ResilientOutcome",
    "RetryExhausted",
    "RetryPolicy",
    "TransportPolicy",
    "TransportScript",
    "backoff_schedule",
    "corrupt_signature",
    "retry_async",
    "run_resilient",
    "task_key",
]


def __getattr__(name: str):
    # The kind tuples come from the fault catalog, read on first use.
    if name in ("BYZANTINE_KINDS", "INFRASTRUCTURE_KINDS"):
        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
