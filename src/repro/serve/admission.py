"""Weighted-fair, priority-aware admission control for the dispatcher.

The service never queues unboundedly: the :class:`AdmissionQueue` holds
at most ``capacity`` pending requests *and* at most ``tenant_capacity``
per tenant, rejects overflow immediately (``serve.rejected``; the caller
gets a retryable error response instead of silent latency — and a
flooding tenant is rejected on *its own* bound while everyone else keeps
being admitted), and refuses everything once closed so shutdown can
drain a finite backlog.  Admission is also where queue-depth metrics are
observed — the dispatcher only ever sees work that was admitted.

Scheduling is **deficit round-robin across tenants** with configurable
per-tenant weights: each tenant with backlog sits in a rotation ring and
earns ``weight`` units of deficit per visit, spending one unit per
request served.  A tenant with weight 2 therefore drains twice as fast
as a weight-1 tenant, and no backlogged tenant waits more than one full
ring rotation for its next service — the starvation bound the property
suite pins down.  Within a tenant, higher ``priority`` drains first,
FIFO within a priority level.

Every queue item pairs the request with the :class:`asyncio.Future`
that will carry its response back to the submitting connection.
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque
from itertools import count
from typing import Any, Mapping

from repro.obs.metrics import get_registry
from repro.serve.request import DEFAULT_TENANT, MechanismRequest

__all__ = ["AdmissionError", "AdmissionQueue", "SHUTDOWN"]

#: Sentinel returned by :meth:`AdmissionQueue.get` once the queue is
#: closed **and** drained — tells the dispatcher no further work exists.
SHUTDOWN = object()


class AdmissionError(Exception):
    """Request refused at the door (queue full, or service draining)."""


class AdmissionQueue:
    """A bounded multi-tenant queue with reject-on-overflow semantics.

    Parameters
    ----------
    capacity:
        Bound on *total* pending requests across all tenants.
    tenant_capacity:
        Bound on one tenant's pending requests (defaults to
        ``capacity``, i.e. no extra per-tenant restriction).  Overflow
        rejection is per-tenant first: a tenant at its own bound is
        refused even when the queue has room.
    weights:
        Deficit-round-robin weight per tenant name (default 1 each).
        Weights must be finite and at least 1 (no livelock, bounded
        rotation latency).

    The shutdown sentinel is tracked as an explicit flag, never as a
    phantom queue slot: :meth:`depth` counts exactly the pending
    requests, so it cannot go negative after the dispatcher consumes the
    sentinel (the ``serve.queue_depth`` histogram stays clean during
    drain).
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        tenant_capacity: int | None = None,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("admission capacity must be at least 1")
        self.capacity = capacity
        self.tenant_capacity = capacity if tenant_capacity is None else tenant_capacity
        if self.tenant_capacity < 1:
            raise ValueError("tenant capacity must be at least 1")
        self._weights = {str(k): float(v) for k, v in (weights or {}).items()}
        # NaN would never reach a deficit of 1 (an endless ring spin);
        # inf would never spend its deficit (no rotation bound).
        if any(not 1.0 <= w < float("inf") for w in self._weights.values()):
            raise ValueError("tenant weights must be finite and at least 1")
        # tenant -> heap of (-priority, seq, request, future): highest
        # priority first, FIFO (by global admission seq) within a level.
        self._tenants: dict[str, list[tuple]] = {}
        self._ring: deque[str] = deque()
        self._deficits: dict[str, float] = {}
        self._seq = count()
        self._size = 0
        self._closed = False
        self._sentinel_pending = False
        self._wakeup: asyncio.Event = asyncio.Event()

    @property
    def closed(self) -> bool:
        return self._closed

    def depth(self) -> int:
        """Pending requests across all tenants (sentinel never counted)."""
        return self._size

    def tenant_depth(self, tenant: str) -> int:
        """Pending requests for one tenant."""
        return len(self._tenants.get(tenant, ()))

    def tenants(self) -> dict[str, int]:
        """Backlogged tenants and their current depths."""
        return {t: len(q) for t, q in self._tenants.items() if q}

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def submit(
        self, request: MechanismRequest
    ) -> "asyncio.Future[Any]":
        """Admit a request, returning the future its response resolves.

        Raises :class:`AdmissionError` when the service is draining, the
        tenant is at its own bound, or the queue is at total capacity;
        the rejection is counted either way (plus per-tenant).
        """
        registry = get_registry()
        tenant = request.tenant or DEFAULT_TENANT
        if self._closed:
            registry.inc("serve.rejected")
            registry.inc(f"serve.tenant.{tenant}.rejected")
            raise AdmissionError("service is shutting down")
        if self.tenant_depth(tenant) >= self.tenant_capacity:
            registry.inc("serve.rejected")
            registry.inc("serve.rejected_tenant_overflow")
            registry.inc(f"serve.tenant.{tenant}.rejected")
            raise AdmissionError(
                f"admission queue full for tenant {tenant!r} "
                f"(tenant capacity {self.tenant_capacity})"
            )
        if self._size >= self.capacity:
            registry.inc("serve.rejected")
            registry.inc(f"serve.tenant.{tenant}.rejected")
            raise AdmissionError(f"admission queue full (capacity {self.capacity})")
        future: asyncio.Future[Any] = asyncio.get_running_loop().create_future()
        backlog = self._tenants.get(tenant)
        if backlog is None:
            backlog = self._tenants[tenant] = []
        if not backlog:
            # Tenant (re)activates: join the ring with a fresh deficit.
            self._ring.append(tenant)
            self._deficits[tenant] = 0.0
        heapq.heappush(
            backlog, (-request.priority, next(self._seq), request, future)
        )
        self._size += 1
        registry.inc("serve.admitted")
        registry.inc(f"serve.tenant.{tenant}.admitted")
        registry.observe("serve.queue_depth", float(self._size))
        self._wakeup.set()
        return future

    def close(self) -> None:
        """Stop admitting; hand the dispatcher a sentinel once drained."""
        if not self._closed:
            self._closed = True
            self._sentinel_pending = True
            self._wakeup.set()

    # -- dispatcher side ----------------------------------------------

    def _next_item(self) -> Any | None:
        """Deficit-round-robin pick, or ``None`` when nothing is pending."""
        while self._ring:
            tenant = self._ring[0]
            backlog = self._tenants.get(tenant)
            if not backlog:
                # Tenant drained since its last visit: leave the ring
                # (deficit resets on reactivation — idle tenants never
                # bank credit).
                self._ring.popleft()
                self._deficits.pop(tenant, None)
                continue
            if self._deficits[tenant] >= 1.0:
                self._deficits[tenant] -= 1.0
                _, _, request, future = heapq.heappop(backlog)
                self._size -= 1
                if not backlog:
                    self._ring.popleft()
                    self._deficits.pop(tenant, None)
                return (request, future)
            # Visit: earn this tenant's quantum, move to the ring's back.
            self._deficits[tenant] += self.weight(tenant)
            self._ring.rotate(-1)
        return None

    async def get(self) -> Any:
        """Next admitted item in DRR order, or :data:`SHUTDOWN` once the
        queue is closed and fully drained (dispatcher side)."""
        while True:
            item = self._next_item()
            if item is not None:
                return item
            if self._sentinel_pending:
                self._sentinel_pending = False
                return SHUTDOWN
            self._wakeup.clear()
            await self._wakeup.wait()

    def get_nowait(self) -> Any:
        """Non-blocking :meth:`get`; raises :class:`asyncio.QueueEmpty`."""
        item = self._next_item()
        if item is not None:
            return item
        if self._sentinel_pending:
            self._sentinel_pending = False
            return SHUTDOWN
        raise asyncio.QueueEmpty
