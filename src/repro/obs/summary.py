"""Trace rollups: the ``python -m repro trace summarize`` backend.

Turns a JSONL trace (plus, optionally, a metrics report written next to
it) into per-phase / per-agent / per-account aggregates.  The summary is
derived purely from the records, so it is as deterministic as the trace
itself; wall-clock figures appear only when a metrics report is
supplied.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Mapping, Sequence

from repro.obs.perf import span_total
from repro.obs.tracer import TraceEvent

__all__ = ["summarize_trace"]

#: Mechanism phase span kinds, in protocol order.
PHASE_KINDS = ("phase_1", "phase_2", "phase_3", "phase_4")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _children_by_parent(events: Sequence[TraceEvent]) -> dict[int | None, list[TraceEvent]]:
    children: dict[int | None, list[TraceEvent]] = defaultdict(list)
    for event in events:
        children[event.parent].append(event)
    return children


def summarize_trace(
    events: Sequence[TraceEvent],
    metrics: Mapping[str, Any] | None = None,
) -> str:
    """Render per-phase / per-agent / ledger rollups as plain text."""
    lines: list[str] = []
    kinds = Counter(e.kind for e in events)
    runs = [e for e in events if e.kind == "run"]
    completed = sum(1 for e in runs if e.attrs.get("completed"))
    lines.append(
        f"trace: {len(events)} events, {len(runs)} run(s) "
        f"({completed} completed, {len(runs) - completed} aborted)"
    )

    # ---- per-phase rollup -------------------------------------------
    children = _children_by_parent(events)
    histograms = dict(metrics.get("histograms", {})) if metrics else {}
    lines.append("")
    lines.append("phase      spans  events  wall-clock total (s)")
    for kind in PHASE_KINDS:
        spans = [e for e in events if e.kind == kind]
        nested = sum(len(children.get(e.id, [])) for e in spans)
        count, total = span_total(histograms, f"mechanism.{kind}")
        wall = _fmt(total) if count else "-"
        lines.append(f"{kind:<9} {len(spans):>6} {nested:>7}  {wall}")

    # ---- simulated activity -----------------------------------------
    sim = [e for e in events if e.kind == "sim_interval"]
    if sim:
        busy: dict[str, float] = defaultdict(float)
        for e in sim:
            if e.t0 is not None and e.t1 is not None:
                busy[str(e.attrs.get("activity", "?"))] += e.t1 - e.t0
        makespan = max((e.t1 for e in sim if e.t1 is not None), default=0.0)
        parts = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(busy.items()))
        lines.append("")
        lines.append(
            f"sim: {len(sim)} intervals, busy time by activity: {parts}; "
            f"latest completion t={_fmt(makespan)}"
        )

    # ---- fines per agent --------------------------------------------
    fines = [e for e in events if e.kind == "fine"]
    lines.append("")
    if fines:
        per_proc: dict[Any, list[float]] = defaultdict(list)
        for e in fines:
            per_proc[e.attrs.get("proc")].append(float(e.attrs.get("amount", 0.0)))
        lines.append("fines      count  total")
        for proc in sorted(per_proc, key=str):
            amounts = per_proc[proc]
            lines.append(f"P{proc!s:<9} {len(amounts):>5}  {_fmt(sum(amounts))}")
    else:
        lines.append("fines: none")

    # ---- injected faults --------------------------------------------
    injected = [e for e in events if e.kind == "fault_injected"]
    if injected:
        by_kind = Counter(str(e.attrs.get("fault_kind", "?")) for e in injected)
        detected_events = [e for e in events if e.kind == "fault_detected"]
        detected_targets = {
            (e.attrs.get("run"), e.attrs.get("target")) for e in detected_events
        }
        rendered = ", ".join(f"{kind} x{count}" for kind, count in sorted(by_kind.items()))
        lines.append("")
        lines.append(
            f"faults: {len(injected)} injected ({rendered}); "
            f"{len(detected_targets)} deviator(s) detected and fined"
        )

    # ---- grievances and audits --------------------------------------
    grievances = [e for e in events if e.kind == "grievance"]
    if grievances:
        by_outcome = Counter(
            (str(e.attrs.get("grievance_kind", "?")), bool(e.attrs.get("substantiated")))
            for e in grievances
        )
        rendered = ", ".join(
            f"{kind}: {count} {'substantiated' if sub else 'exculpated'}"
            for (kind, sub), count in sorted(by_outcome.items())
        )
        lines.append(f"grievances: {len(grievances)} ({rendered})")
    audits = [e for e in events if e.kind == "audit"]
    if audits:
        challenged = sum(1 for e in audits if e.attrs.get("challenged"))
        failed = sum(1 for e in audits if float(e.attrs.get("fine", 0.0)) > 0)
        lines.append(f"audits: {len(audits)} bills, {challenged} challenged, {failed} fined")

    # ---- ledger ------------------------------------------------------
    transfers = [e for e in events if e.kind == "ledger_transfer"]
    lines.append("")
    if transfers:
        volume = sum(float(e.attrs.get("amount", 0.0)) for e in transfers)
        by_memo: dict[str, list[float]] = defaultdict(list)
        for e in transfers:
            by_memo[str(e.attrs.get("memo", ""))].append(float(e.attrs.get("amount", 0.0)))
        lines.append(f"ledger: {len(transfers)} transfers, volume {_fmt(volume)}")
        for memo in sorted(by_memo):
            amounts = by_memo[memo]
            lines.append(f"  {memo:<40} x{len(amounts):<4} {_fmt(sum(amounts))}")
    else:
        lines.append("ledger: no transfers")

    # ---- metrics sidecar (crypto, perf spans) ------------------------
    if metrics:
        counters = metrics.get("counters", {})
        lines.append("")
        sigs = counters.get("crypto.signatures_created")
        verifs = counters.get("crypto.verifications_performed")
        if sigs is not None or verifs is not None:
            lines.append(
                f"crypto: {int(sigs or 0)} signatures created, "
                f"{int(verifs or 0)} verifications performed"
            )
        count, total = span_total(histograms, "mechanism")
        if count:
            lines.append(
                f"mechanism wall-clock: {count} runs, "
                f"total {_fmt(total)}s, mean {_fmt(total / count)}s"
            )
        # Fallbacks off the batch engine are regressions-in-waiting:
        # surface the count even when zero so its absence is visible.
        fallbacks = counters.get("mechanism.scalar_fallbacks")
        if fallbacks is not None:
            lines.append(f"scalar fallbacks off the batch engine: {int(fallbacks)}")
        serve_counters = {
            name: value for name, value in counters.items() if name.startswith("serve.")
        }
        if serve_counters:
            rendered = ", ".join(
                f"{name.removeprefix('serve.')}={int(value)}"
                for name, value in sorted(serve_counters.items())
            )
            lines.append(f"serve: {rendered}")
            depth = histograms.get("serve.queue_depth")
            batch = histograms.get("serve.batch_size")
            if depth or batch:
                parts = []
                if depth:
                    parts.append(
                        f"queue depth p50 {_fmt(float(depth['p50']))} "
                        f"max {_fmt(float(depth['max']))}"
                    )
                if batch:
                    parts.append(
                        f"flush size p50 {_fmt(float(batch['p50']))} "
                        f"max {_fmt(float(batch['max']))}"
                    )
                lines.append(f"  {'; '.join(parts)}")
    return "\n".join(lines)
