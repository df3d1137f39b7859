"""A minimal deterministic discrete-event simulation engine.

The engine maintains a priority queue of timestamped events; ties break
by insertion order, so runs are fully deterministic.  Handlers may
schedule further events.  The engine is deliberately small — the paper's
timing model (Section 2, assumptions (i)–(iii)) has no queueing or
contention beyond the one-port constraint, which the network models
enforce at the call sites — but it is a real event loop: the
linear-chain simulation (:func:`~repro.sim.linear_sim.simulate_linear_chain`,
the mechanism's Phase III) runs on it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulator"]


@dataclass(order=True)
class Event:
    """A scheduled event.

    Ordering is ``(time, seq)``; ``seq`` is a monotonically increasing
    insertion counter that makes simultaneous events fire in schedule
    order.
    """

    time: float
    seq: int
    action: Callable[["Simulator"], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class Simulator:
    """Deterministic event-driven simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule_at(2.0, lambda s: hits.append(s.now), label="later")
    >>> _ = sim.schedule_at(1.0, lambda s: hits.append(s.now), label="sooner")
    >>> sim.run()
    >>> hits
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue: list[Event] = []
        self._counter = itertools.count()
        #: Current simulated time; monotonically non-decreasing.
        self.now: float = 0.0
        #: Number of events executed (skips excluded).
        self.executed: int = 0

    def schedule_at(self, time: float, action: Callable[["Simulator"], None], *, label: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        event = Event(time=float(time), seq=next(self._counter), action=action, label=label)
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(self, delay: float, action: Callable[["Simulator"], None], *, label: str = "") -> Event:
        """Schedule ``action`` after a non-negative ``delay``."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, action, label=label)

    def run(self, *, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have executed."""
        start_executed = self.executed
        try:
            while self._queue:
                if max_events is not None and self.executed >= max_events:
                    return
                event = heapq.heappop(self._queue)
                if event.cancelled:
                    continue
                if until is not None and event.time > until:
                    # Put it back so a later run() continues correctly.
                    heapq.heappush(self._queue, event)
                    self.now = until
                    return
                self.now = event.time
                self.executed += 1
                event.action(self)
        finally:
            # One registry update per run() call, not per event — the
            # counter is observability, not part of the hot loop.
            executed = self.executed - start_executed
            if executed:
                from repro.obs.metrics import get_registry

                get_registry().inc("sim.events_executed", executed)

    def pending(self) -> int:
        """Number of not-yet-cancelled queued events."""
        return sum(1 for e in self._queue if not e.cancelled)
