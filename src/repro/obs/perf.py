"""Hierarchical wall-clock profiling spans, strictly outside the trace.

The third leg of the observability layer: :func:`span` times a block of
code under a dotted *span path* built from the stack of open spans, and
records the duration into the active :class:`~repro.obs.metrics.
MetricsRegistry` as a latency histogram named ``perf.<path>``.  Storing
span data *as* registry histograms buys the whole snapshot-and-merge
machinery for free: per-task profiles collected in pooled workers ship
back with the task's metrics delta and fold into the parent exactly like
counters do.

Hard invariant: **perf spans never touch the deterministic trace
stream** (:mod:`repro.obs.tracer`).  Wall-clock readings live only in
metrics, which are allowed to vary run to run; golden traces stay
byte-identical with profiling enabled (guarded by an integration test).

Span paths nest by the runtime call stack::

    with span("mechanism"):
        with span("phase_1"):
            with span("bidding"):   # -> perf.mechanism.phase_1.bidding
                ...

Self time is not recorded separately; it is derived structurally when
reporting: ``self(p) = total(p) - sum(total(c) for direct children c)``.
Dots inside a single span name (``span("phase1.bidding")``) create the
same hierarchy levels as nested spans — the tree is keyed purely by the
dotted path.

Profiling is on by default and costs two ``perf_counter`` calls plus one
histogram insert per span.  Set the environment variable ``REPRO_PERF=0``
(or call :func:`set_enabled`) to turn every span into a no-op, e.g. when
measuring the kernels themselves.
"""

from __future__ import annotations

import math
import os
from contextlib import AbstractContextManager, contextmanager, nullcontext
from time import perf_counter
from typing import Any, Iterator, Mapping

from repro.obs.metrics import LatencyHistogram, get_registry

__all__ = [
    "PerfProfiler",
    "span",
    "perf_enabled",
    "set_enabled",
    "span_tree",
    "span_total",
    "format_span_tree",
    "format_latency_table",
]

_ENV_FLAG = "REPRO_PERF"

#: Histogram-name prefix for span durations.
PERF_PREFIX = "perf."

#: What a disabled profiler's spans return: entering it does nothing.
_NO_SPAN = nullcontext()


class PerfProfiler:
    """Per-process span-path stack feeding ``perf.*`` histograms.

    One module-level instance backs :func:`span`; separate instances
    exist only for tests.  The profiler holds *no* duration state of its
    own — durations go straight to the active metrics registry, so
    :func:`~repro.obs.metrics.collecting` scoping and worker snapshot
    shipping apply unchanged.
    """

    def __init__(self, enabled: bool | None = None) -> None:
        if enabled is None:
            enabled = os.environ.get(_ENV_FLAG, "1") != "0"
        self.enabled = enabled
        self._stack: list[str] = []

    def current_path(self) -> str | None:
        """The dotted path of the innermost open span, or ``None``."""
        return ".".join(self._stack) if self._stack else None

    def span(self, name: str) -> AbstractContextManager[None]:
        """Time the enclosed block into ``perf.<path>.<name>`` seconds.

        Nested calls extend the dotted path; the histogram write happens
        on exit against whatever registry is active *then*, so a span
        fully inside a :func:`~repro.obs.metrics.collecting` scope lands
        in that scope's delta.  A disabled profiler hands out one shared
        no-op context.
        """
        return self._timed(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _timed(self, name: str) -> Iterator[None]:
        self._stack.append(name)
        path = ".".join(self._stack)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            get_registry().observe(PERF_PREFIX + path, elapsed)


#: The process-wide profiler behind :func:`span`.
_PROFILER = PerfProfiler()


def span(name: str) -> Any:
    """Module-level convenience: ``with span("phase_1"): ...``."""
    return _PROFILER.span(name)


def perf_enabled() -> bool:
    return _PROFILER.enabled


def set_enabled(flag: bool) -> bool:
    """Flip profiling on/off; returns the previous setting."""
    previous = _PROFILER.enabled
    _PROFILER.enabled = bool(flag)
    return previous


# -- reporting ---------------------------------------------------------


def span_tree(histograms: Mapping[str, Mapping[str, Any]]) -> dict[str, dict[str, Any]]:
    """Build the self/cumulative time tree from a histograms snapshot.

    Takes the ``"histograms"`` section of a metrics snapshot, keeps the
    ``perf.*`` entries, and returns ``{path: node}`` with nodes::

        {"total": float, "count": int, "self": float,
         "children": [child paths], "depth": int, "measured": bool}

    Interior paths that were never directly timed (e.g. ``experiments``
    when only ``experiments.T2_1`` has observations) are synthesized
    with ``measured=False`` and ``total`` equal to the sum of their
    children, so the tree always renders from its roots.  ``self`` is
    ``total`` minus the direct children's totals, floored at zero
    (children observed in a different process than their parent can
    otherwise produce tiny negatives).
    """
    totals: dict[str, dict[str, Any]] = {}
    for name, data in histograms.items():
        if not name.startswith(PERF_PREFIX):
            continue
        path = name[len(PERF_PREFIX):]
        totals[path] = {
            "total": float(data.get("total", 0.0)),
            "count": int(data.get("count", 0)),
            "measured": True,
        }
    # Synthesize unmeasured interior nodes bottom-up so parents exist.
    for path in sorted(totals, key=lambda p: -p.count(".")):
        parts = path.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            parent = ".".join(parts[:cut])
            if parent not in totals:
                totals[parent] = {"total": 0.0, "count": 0, "measured": False}
    nodes: dict[str, dict[str, Any]] = {}
    for path, info in totals.items():
        nodes[path] = {
            "total": info["total"],
            "count": info["count"],
            "self": info["total"],
            "children": [],
            "depth": path.count("."),
            "measured": info["measured"],
        }
    for path in sorted(nodes):
        if "." not in path:
            continue
        parent = path.rsplit(".", 1)[0]
        nodes[parent]["children"].append(path)
    # Unmeasured nodes inherit the sum of their children; do deepest
    # first so multi-level synthetic chains accumulate correctly.
    for path in sorted(nodes, key=lambda p: -nodes[p]["depth"]):
        node = nodes[path]
        child_total = sum(nodes[c]["total"] for c in node["children"])
        if not node["measured"]:
            node["total"] = child_total
            node["self"] = 0.0
        else:
            node["self"] = max(0.0, node["total"] - child_total)
    return nodes


def span_total(histograms: Mapping[str, Mapping[str, Any]], suffix: str) -> tuple[int, float]:
    """``(count, seconds)`` summed over every span path ending in ``.suffix``,
    top level or nested under any span (``runtime.epoch.``, ``experiments.X8.``)."""
    hits = [h for n, h in histograms.items() if n.startswith(PERF_PREFIX) and n.endswith("." + suffix)]
    return sum(int(h["count"]) for h in hits), sum(float(h["total"]) for h in hits)


def _walk(nodes: Mapping[str, dict[str, Any]], path: str, depth: int, lines: list) -> None:
    node = nodes[path]
    label = "  " * depth + path.rsplit(".", 1)[-1]
    total = f"{node['total']:.4f}s"
    self_t = f"{node['self']:.4f}s" if node["measured"] else "-"
    count = str(node["count"]) if node["measured"] else "-"
    lines.append((label, total, self_t, count))
    for child in sorted(node["children"], key=lambda c: -nodes[c]["total"]):
        _walk(nodes, child, depth + 1, lines)


def format_span_tree(histograms: Mapping[str, Mapping[str, Any]]) -> str:
    """Render the span tree as an aligned text table (one span per line).

    Children are sorted by descending cumulative time; the ``self``
    column shows time not attributed to any child span.
    """
    nodes = span_tree(histograms)
    if not nodes:
        return "(no perf spans recorded)"
    lines: list[tuple[str, str, str, str]] = []
    roots = sorted(
        (p for p in nodes if "." not in p), key=lambda p: -nodes[p]["total"]
    )
    for root in roots:
        _walk(nodes, root, 0, lines)
    widths = [max(len(row[col]) for row in lines + [("span", "total", "self", "count")]) for col in range(4)]
    header = f"{'span':<{widths[0]}}  {'total':>{widths[1]}}  {'self':>{widths[2]}}  {'count':>{widths[3]}}"
    rendered = [header, "-" * len(header)]
    for label, total, self_t, count in lines:
        rendered.append(f"{label:<{widths[0]}}  {total:>{widths[1]}}  {self_t:>{widths[2]}}  {count:>{widths[3]}}")
    return "\n".join(rendered)


def _fmt_seconds(value: float) -> str:
    if value == 0.0:
        return "0"
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def format_latency_table(histograms: Mapping[str, Mapping[str, Any]]) -> str:
    """Percentile table (count/mean/p50/p95/p99/max) for the ``perf.*`` spans.

    Quantiles are recomputed from the merged buckets via
    :meth:`LatencyHistogram.from_dict`, so the table is exact for
    snapshots produced by any worker count; histograms without buckets
    (legacy shape) fall back to their stored summary fields.
    """
    rows = []
    for name in sorted(histograms):
        if not name.startswith(PERF_PREFIX):
            continue
        data = histograms[name]
        hist = LatencyHistogram.from_dict(data)
        if hist.count == 0:
            continue
        rows.append(
            (
                name,
                str(hist.count),
                _fmt_seconds(hist.total / hist.count),
                _fmt_seconds(hist.quantile(0.50)),
                _fmt_seconds(hist.quantile(0.95)),
                _fmt_seconds(hist.quantile(0.99)),
                _fmt_seconds(hist.max if not math.isinf(hist.max) else 0.0),
            )
        )
    if not rows:
        return "(no latency histograms recorded)"
    header_row = ("histogram", "count", "mean", "p50", "p95", "p99", "max")
    widths = [max(len(r[col]) for r in rows + [header_row]) for col in range(7)]
    out = []
    out.append("  ".join(f"{header_row[c]:<{widths[c]}}" if c == 0 else f"{header_row[c]:>{widths[c]}}" for c in range(7)))
    out.append("-" * len(out[0]))
    for row in rows:
        out.append("  ".join(f"{row[c]:<{widths[c]}}" if c == 0 else f"{row[c]:>{widths[c]}}" for c in range(7)))
    return "\n".join(out)
