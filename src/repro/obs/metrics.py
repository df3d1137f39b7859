"""Metrics registry: named counters, gauges and histograms.

The observability layer's second leg (the first is the event tracer in
:mod:`repro.obs.tracer`): a process-wide registry of named metrics that
instrumented code increments through :func:`get_registry`.  Three design
constraints drive the shape:

1. **Snapshot-and-merge.**  Worker processes (the
   :class:`~concurrent.futures.ProcessPoolExecutor` experiment runner)
   accumulate metrics in their own registry and ship a picklable
   :func:`MetricsRegistry.snapshot` back to the parent, which merges it.
   The merge is associative, so any grouping of per-task snapshots
   aggregates to the same totals.
2. **Scoped collection.**  :func:`collecting` installs a fresh registry
   for the duration of a task and folds it into the enclosing registry on
   exit, so callers get the task's *delta* without double counting —
   the same code path works in-process and in a pooled worker.
3. **Negligible cost.**  A counter increment is one dict operation.
   Instrumenting a kernel that does real work does not move its
   benchmark.

Naming convention: dotted lowercase paths (``crypto.signatures_created``,
``mechanism.fines_levied``, ``cache.solve_linear.task_hits``).  The registry
has no clock: wall-clock time enters only as :mod:`repro.obs.perf`
spans, histograms under ``perf.<path>`` in seconds.

Histograms are **fixed-bucket log-scale**: positive observations fall
into quarter-octave buckets (four buckets per power of two, ~19% wide,
so any quantile read off a bucket is within ~19% of the true value),
non-positive observations pool in a dedicated underflow slot, and exact
count/total/min/max ride alongside.  Bucket *counts* are integers, so a
merge of per-worker snapshots is exact and order-independent; quantiles
(p50/p95/p99) are nearest-rank reads over the merged buckets and are
therefore identical no matter how many workers contributed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from typing import Any, Iterator, Mapping

import numpy as np

__all__ = [
    "CounterColumns",
    "LatencyHistogram",
    "MetricsRegistry",
    "bucket_index",
    "bucket_lower_bound",
    "get_registry",
    "collecting",
    "fold_snapshots",
    "merge_snapshots",
]

#: Buckets per power of two.  Four gives quarter-octave resolution:
#: consecutive bucket bounds differ by 2**0.25 ~ 1.19.
_STEPS_PER_OCTAVE = 4

#: Mantissa thresholds for the four sub-buckets of one octave.
#: ``math.frexp`` yields a mantissa in [0.5, 1); these split that range
#: geometrically: [0.5, 0.5*2^0.25), [0.5*2^0.25, 0.5*2^0.5), ...
_MANTISSA_EDGES = tuple(0.5 * 2.0 ** (j / _STEPS_PER_OCTAVE) for j in range(_STEPS_PER_OCTAVE))

#: Serialized key for the non-positive underflow slot.
_NONPOS_KEY = "nonpos"


def bucket_index(value: float) -> int:
    """Quarter-octave bucket index for a positive ``value``.

    The bucket holding ``value`` spans
    ``[bucket_lower_bound(i), bucket_lower_bound(i + 1))``.  Indices are
    integers (negative for values below 1.0) and purely a function of
    the value — no registry state — so indices computed in different
    worker processes always agree.
    """
    mantissa, exponent = math.frexp(value)  # mantissa in [0.5, 1)
    if mantissa < _MANTISSA_EDGES[1]:
        sub = 0
    elif mantissa < _MANTISSA_EDGES[2]:
        sub = 1
    elif mantissa < _MANTISSA_EDGES[3]:
        sub = 2
    else:
        sub = 3
    return _STEPS_PER_OCTAVE * exponent + sub


def bucket_lower_bound(index: int) -> float:
    """Inclusive lower bound of bucket ``index`` (inverse of the above)."""
    exponent, sub = divmod(index, _STEPS_PER_OCTAVE)
    return math.ldexp(_MANTISSA_EDGES[sub], exponent)


class LatencyHistogram:
    """Fixed-bucket log-scale histogram with exact merge and quantiles.

    Positive observations are bucketed by :func:`bucket_index`;
    non-positive ones pool in an underflow slot.  Each bucket keeps an
    integer count and a float sum, so merging two histograms adds
    bucket-wise — associative, commutative on the integer counts, and
    (for the float sums) dependent only on fold order, which the runner
    fixes to submission order.  Exact min/max/total/count are kept
    alongside the buckets.

    Quantiles use the nearest-rank rule: ``quantile(q)`` finds the
    ``ceil(q * count)``-th smallest observation's bucket and returns
    that bucket's mean — exact when the bucket holds a single distinct
    value (as in tests over known distributions), within one bucket
    width (~19%) otherwise.  ``quantile(1.0)`` returns the exact max.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "nonpos_count", "nonpos_total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, list] = {}  # index -> [count, sum]
        self.nonpos_count = 0
        self.nonpos_total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            idx = bucket_index(value)
            slot = self.buckets.get(idx)
            if slot is None:
                self.buckets[idx] = [1, value]
            else:
                slot[0] += 1
                slot[1] += value
        else:
            self.nonpos_count += 1
            self.nonpos_total += value

    # -- quantiles -----------------------------------------------------

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile ``q`` in [0, 1] (0.0 on empty)."""
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        if rank == self.count:
            return self.max  # the top rank is the exact maximum
        seen = 0
        if self.nonpos_count:
            seen += self.nonpos_count
            if rank <= seen:
                return self.nonpos_total / self.nonpos_count
        for idx in sorted(self.buckets):
            cnt, tot = self.buckets[idx]
            seen += cnt
            if rank <= seen:
                return tot / cnt
        return self.max  # unreachable unless counts drifted

    # -- serialization -------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form: picklable, JSON-round-trip stable.

        Bucket keys are serialized as strings so ``json.loads(json.dumps
        (snapshot))`` equals the snapshot — history files and worker
        snapshots share one shape.
        """
        buckets: dict[str, list] = {str(i): list(self.buckets[i]) for i in sorted(self.buckets)}
        if self.nonpos_count:
            buckets[_NONPOS_KEY] = [self.nonpos_count, self.nonpos_total]
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }

    def merge_dict(self, other: Mapping[str, Any]) -> None:
        """Fold a serialized histogram in (tolerates bucket-less dicts)."""
        count = int(other.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(other.get("total", 0.0))
        self.min = min(self.min, float(other.get("min", float("inf"))))
        self.max = max(self.max, float(other.get("max", float("-inf"))))
        for key, (cnt, tot) in other.get("buckets", {}).items():
            if key == _NONPOS_KEY:
                self.nonpos_count += int(cnt)
                self.nonpos_total += float(tot)
                continue
            idx = int(key)
            slot = self.buckets.get(idx)
            if slot is None:
                self.buckets[idx] = [int(cnt), float(tot)]
            else:
                slot[0] += int(cnt)
                slot[1] += float(tot)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencyHistogram":
        """Rehydrate a histogram from its :meth:`as_dict` form."""
        hist = cls()
        hist.merge_dict(data)
        return hist


class MetricsRegistry:
    """Named counters, gauges and histograms with snapshot/merge.

    Examples
    --------
    >>> reg = MetricsRegistry()
    >>> reg.inc("cache.hits")
    >>> reg.inc("cache.hits", 2)
    >>> reg.counter("cache.hits")
    3.0
    >>> reg.observe("serve.batch_size", 4)
    >>> reg.snapshot()["histograms"]["serve.batch_size"]["count"]
    1
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    # -- counters ------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def set_counter(self, name: str, value: float) -> None:
        """Force counter ``name`` to ``value`` (reset paths only)."""
        self._counters[name] = float(value)

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0.0)

    # -- gauges --------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins on merge)."""
        self._gauges[name] = float(value)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    # -- histograms ----------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Add an observation to histogram ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LatencyHistogram()
        hist.observe(float(value))

    # -- snapshot / merge / reset --------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict, picklable copy of the registry's state."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {name: h.as_dict() for name, h in self._histograms.items()},
        }

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a snapshot into this registry.

        Counters and histograms add; gauges take the incoming value
        (point-in-time semantics).  Merging is associative: folding
        per-task snapshots in any grouping yields identical totals.
        """
        counters = self._counters
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in snap.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, data in snap.get("histograms", {}).items():
            if int(data.get("count", 0)) == 0:
                continue  # don't materialize empty histograms
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = LatencyHistogram()
            hist.merge_dict(data)

    def reset(self, prefix: str | None = None) -> None:
        """Drop all metrics, or only those whose name starts with ``prefix``."""
        if prefix is None:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            return
        for store in (self._counters, self._gauges, self._histograms):
            for name in [n for n in store if n.startswith(prefix)]:
                del store[name]


def merge_snapshots(snaps: Iterator[Mapping[str, Any]] | list[Mapping[str, Any]]) -> dict[str, Any]:
    """Fold snapshots into one (fresh registry, associative merge)."""
    acc = MetricsRegistry()
    for snap in snaps:
        acc.merge(snap)
    return acc.snapshot()


@dataclass(frozen=True)
class CounterColumns:
    """The counter deltas of ``n`` rows as ``k`` named columns.

    ``names`` are the counters in their builder's fixed key order;
    ``values`` is an ``(n, k)`` float64 matrix holding row ``r``'s delta
    of counter ``names[j]`` at ``[r, j]`` and ``0.0`` where the row has no
    such key; ``present`` is the ``(n, k)`` bool mask of the keys each
    row has.  A stacked engine builds one block per call where a solo
    loop would build ``n`` snapshot dicts; :func:`fold_snapshots` folds
    it as columns, and :meth:`snapshots` (also iteration) gives the
    per-row dicts for callers that need them.
    """

    names: tuple[str, ...]
    values: np.ndarray
    present: np.ndarray

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.snapshots())

    def snapshots(self) -> list[dict[str, Any]]:
        """One counters-only snapshot per row, keys in ``names`` order."""
        names = self.names
        return [
            {"counters": dict(compress(zip(names, row), has))}
            for row, has in zip(self.values.tolist(), self.present.tolist())
        ]


def _fold_columns(block: CounterColumns, *targets: dict[str, float]) -> None:
    """Fold ``block``'s rows, in row order, into each counter map.

    A column folds as one ``np.add.accumulate`` over ``[start, d_1 …
    d_n]``: a strictly sequential left fold, so it makes the float
    additions of merging the rows' dicts one by one (``np.sum`` would
    sum pairwise and round differently).  An absent row adds ``0.0``,
    exact for these non-negative counters; a column no row has stays
    absent.  New keys enter in the order the dict loop would first meet
    them: by first present row, then by column.
    """
    has = block.present.any(axis=0)
    if not has.any():
        return
    first = block.present.argmax(axis=0).tolist()
    order = sorted(np.flatnonzero(has).tolist(), key=first.__getitem__)
    names = [block.names[j] for j in order]
    deltas = block.values[:, order]
    for target in targets:
        start = np.array([[target.get(name, 0.0) for name in names]])
        folded = np.add.accumulate(np.concatenate((start, deltas)), axis=0)[-1]
        target.update(zip(names, folded.tolist()))


def fold_snapshots(
    snaps: Iterator[Mapping[str, Any] | CounterColumns] | list[Mapping[str, Any] | CounterColumns],
    into: MetricsRegistry,
) -> dict[str, Any]:
    """Merge ``snaps`` into ``into`` in order; return their own fold
    (what :func:`merge_snapshots` returns), built in the same pass.

    A :class:`CounterColumns` item (a stacked engine's rows) folds
    column by column, making the float additions of one
    :meth:`MetricsRegistry.merge` per row without a dict per row; any
    other item is one snapshot, merged.
    """
    acc = MetricsRegistry()
    for snap in snaps:
        if isinstance(snap, CounterColumns):
            _fold_columns(snap, into._counters, acc._counters)
        else:
            into.merge(snap)
            acc.merge(snap)
    return acc.snapshot()


#: Root registry for the process.  Instrumented code must go through
#: :func:`get_registry` (not this name) so :func:`collecting` scopes work.
_ROOT = MetricsRegistry()

#: Stack of active registries; the top is what :func:`get_registry` returns.
_STACK: list[MetricsRegistry] = [_ROOT]


def get_registry() -> MetricsRegistry:
    """The currently active registry (the innermost :func:`collecting`
    scope, or the process root)."""
    return _STACK[-1]


@contextmanager
def collecting(merge: bool = True) -> Iterator[MetricsRegistry]:
    """Collect metrics into a fresh registry for the enclosed block.

    On exit the collected metrics are merged into the enclosing registry,
    so totals keep accumulating; the yielded registry holds exactly the
    block's delta — what a pooled worker ships back to the parent.

    ``merge=False`` captures the delta without folding it anywhere: the
    caller owns the snapshot and decides where (and in what order) it is
    merged.  The serving layer uses this to ship per-request deltas from
    pool workers back to the event loop, which merges them in request
    order so counter folds stay bitwise-equal to a solo loop.
    """
    scoped = MetricsRegistry()
    _STACK.append(scoped)
    try:
        yield scoped
    finally:
        _STACK.pop()
        if merge:
            get_registry().merge(scoped.snapshot())
