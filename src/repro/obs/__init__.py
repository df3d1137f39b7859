"""Observability layer: structured tracing, metrics, profiling reports.

Three pieces, shared by the mechanism, the simulators, the DLT kernels
and the experiment runner:

- :mod:`repro.obs.tracer` — deterministic JSONL span/event records with
  simulated-time stamps (byte-identical across ``--jobs`` counts);
- :mod:`repro.obs.metrics` — named counters/gauges/log-bucket latency
  histograms with per-worker snapshot-and-merge and exact p50/p95/p99;
- :mod:`repro.obs.perf` — hierarchical wall-clock profiling spans, the
  only in-program timer (``perf.<path>`` histograms, never the trace);
- :mod:`repro.obs.bench` — perfbench runs recorded as
  machine-fingerprinted ``BENCH_history.jsonl`` rows, and the
  ``perf diff`` regression gate;
- :mod:`repro.obs.report` / :mod:`repro.obs.summary` — metrics
  reports with a machine stanza and the ``trace summarize`` rollups.

See ``docs/observability.md`` for the event schema and metric names.
"""

from repro.obs.bench import (
    append_history,
    diff_history,
    history_row,
    machine_fingerprint,
    read_history,
)
from repro.obs.metrics import (
    LatencyHistogram,
    MetricsRegistry,
    collecting,
    get_registry,
    merge_snapshots,
)
from repro.obs.perf import (
    PerfProfiler,
    format_latency_table,
    format_span_tree,
    perf_enabled,
    set_enabled,
    span,
    span_tree,
)
from repro.obs.report import machine_info, metrics_report, write_metrics_report
from repro.obs.summary import summarize_trace
from repro.obs.tracer import (
    TraceEvent,
    Tracer,
    event_to_json,
    events_to_jsonl,
    merge_traces,
    read_trace,
    write_trace,
)

__all__ = [
    "LatencyHistogram",
    "MetricsRegistry",
    "PerfProfiler",
    "TraceEvent",
    "Tracer",
    "append_history",
    "collecting",
    "diff_history",
    "event_to_json",
    "events_to_jsonl",
    "format_latency_table",
    "format_span_tree",
    "get_registry",
    "history_row",
    "machine_fingerprint",
    "machine_info",
    "merge_snapshots",
    "merge_traces",
    "metrics_report",
    "perf_enabled",
    "read_history",
    "read_trace",
    "set_enabled",
    "span",
    "span_tree",
    "summarize_trace",
    "write_metrics_report",
    "write_trace",
]
