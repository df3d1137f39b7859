"""Benchmark record: perfbench runs in, ``BENCH_history.jsonl`` out, ``perf diff``.

``perfbench/run.py`` is the repository's one benchmark.  Each run prints
two JSON lines last: a detail line (``{"detail": {workload, seed, trace,
machine, ...}}``) and a result line (``{correct, attempted, failed,
metrics}``).  ``python -m repro perf record FILE...`` reads those pairs:

- :func:`parse_run` checks that a run's output ends in the two lines;
- :func:`history_row` distils one run into an append-only trajectory
  row (schema 2: fingerprint, workload, seed, trace flag, correctness
  and every metric's value), which :func:`append_history` persists;
- :func:`write_record` overwrites ``BENCH_batch.json`` with the machine
  stanza and the runs just read.

``python -m repro perf diff`` runs :func:`diff_history`: per workload,
the newest row against the *median* of earlier rows with the same
machine fingerprint, workload and trace flag, each end-to-end metric of
``BENCHMARK.json`` gated in its ``better`` direction by its ``bound``.
The median, not the best past run: on a VM whose speed swings 1.8x, a
best-of-history baseline flags almost every run.  Only correct runs
with no failed operation count, on either side — a wrong result's speed
is not a number worth keeping.  ``--trace 1`` rows carry per-layer
metrics only, so nothing in them is gated.

:func:`machine_fingerprint` stamps every run (perfbench calls it), so
numbers from different machines are never compared.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.report import machine_info

__all__ = [
    "machine_fingerprint",
    "parse_run",
    "history_row",
    "write_record",
    "append_history",
    "read_history",
    "load_gates",
    "diff_history",
    "format_diff",
]

#: ``BENCHMARK.json`` at the root of the checkout this package runs from.
BENCHMARK_PATH = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


def machine_fingerprint(info: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """The ``machine`` stanza plus a short stable hash identifying it.

    Two runs share a fingerprint iff cpu count, platform string and
    python version all match — the granularity at which wall-clock
    numbers are comparable at all.
    """
    stanza = dict(info) if info is not None else machine_info()
    # Idempotent: re-fingerprinting an already-stamped stanza must not
    # hash the previous fingerprint into a new one.
    stanza.pop("fingerprint", None)
    digest = hashlib.sha256(
        json.dumps(stanza, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]
    stanza["fingerprint"] = digest
    return stanza


def parse_run(text: str) -> tuple[dict[str, Any], dict[str, Any]]:
    """The ``(detail, result)`` pair that ends one perfbench run's output.

    Raises :class:`ValueError` unless the last two non-blank lines are a
    detail line and a result line.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        fingerprint = detail["machine"]["fingerprint"]
        identity = (detail["workload"], detail["seed"], detail["trace"])
        values = [metric["value"] for metric in result["metrics"].values()]
        counts = (result["correct"], result["attempted"], result["failed"])
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        raise ValueError("does not end in a perfbench detail line and result line") from None
    if not (
        isinstance(fingerprint, str)
        and isinstance(identity[0], str)
        and all(isinstance(v, int) for v in (*identity[1:], *counts[1:]))
        and isinstance(counts[0], bool)
        and all(isinstance(v, (int, float)) for v in values)
    ):
        raise ValueError("perfbench detail or result line has a field of the wrong type")
    return detail, result


def history_row(detail: Mapping[str, Any], result: Mapping[str, Any]) -> dict[str, Any]:
    """One append-only trajectory row distilled from a perfbench run.

    The timestamp is when the run was recorded (histories are not
    traces; they are allowed — required, even — to differ run to run).
    """
    return {
        "schema": 2,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "fingerprint": detail["machine"]["fingerprint"],
        "workload": detail["workload"],
        "seed": detail["seed"],
        "trace": detail["trace"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def write_record(
    path: str | os.PathLike[str], runs: Sequence[tuple[Mapping[str, Any], Mapping[str, Any]]]
) -> None:
    """Overwrite ``path`` with the runs' machine stanza and their lines.

    Raises :class:`ValueError` when the runs come from different
    machines: one record describes one machine.
    """
    machines = {json.dumps(detail["machine"], sort_keys=True) for detail, _ in runs}
    if len(machines) != 1:
        raise ValueError(f"runs come from {len(machines)} machines; record one machine at a time")
    record = {
        "machine": json.loads(machines.pop()),
        "runs": [{"detail": detail, "result": result} for detail, result in runs],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def append_history(path: str | os.PathLike[str], row: Mapping[str, Any]) -> None:
    """Append one row to the JSONL history (created on first use)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


def read_history(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """All rows of a JSONL history file ([] when the file is missing)."""
    if not os.path.exists(path):
        return []
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def load_gates() -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` for the end-to-end metrics of ``BENCHMARK.json``."""
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def _counts(row: Mapping[str, Any]) -> bool:
    """A row counts for gating iff its run was correct with no failures."""
    return row.get("correct") is True and row.get("failed") == 0


def diff_history(
    rows: Iterable[Mapping[str, Any]],
    gates: Mapping[str, tuple[str, float]],
    threshold: float | None = None,
    baseline_rows: Iterable[Mapping[str, Any]] | None = None,
) -> dict[str, Any]:
    """Gate the newest row of each workload against its median baseline.

    The baseline of a metric is the median over earlier counting rows
    (see :func:`_counts`) that share the newest row's fingerprint,
    workload and trace flag.  A metric regresses when it is worse than
    that median by more than its ``bound`` from ``gates``, as a
    fraction of the median, in its ``better`` direction; ``threshold``
    replaces every bound.  It must be finite and non-negative: ``x > nan``
    and ``x > inf`` are never true, so such a gate would pass anything.

    ``baseline_rows`` overrides the in-file baseline (the ``--baseline``
    flag): the newest rows still come from ``rows``.  Returns
    ``{"status": "ok" | "regression" | "no-data", "threshold",
    "workloads": {workload: {...}}, "regressions": ["workload.metric"]}``.
    """
    # Imported here: ``import repro.obs`` (every metrics user) would
    # otherwise load statistics, decimal and fractions.
    import statistics

    if threshold is not None and not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    rows = list(rows)
    if baseline_rows is not None:
        baseline_rows = list(baseline_rows)
    newest = {row.get("workload"): index for index, row in enumerate(rows)}

    workloads: dict[str, Any] = {}
    regressions: list[str] = []
    compared = False
    for workload, index in newest.items():
        current = rows[index]
        key = (current.get("fingerprint"), workload, current.get("trace"))
        earlier = rows[:index] if baseline_rows is None else baseline_rows
        comparable = [
            r
            for r in earlier
            if (r.get("fingerprint"), r.get("workload"), r.get("trace")) == key and _counts(r)
        ]
        entry: dict[str, Any] = {
            "fingerprint": key[0],
            "trace": key[2],
            "baseline_rows": len(comparable),
            "metrics": {},
        }
        workloads[workload] = entry
        if not _counts(current):
            entry["verdict"] = "skipped-incorrect"
            continue
        for name, (better, bound) in gates.items():
            if name not in current.get("metrics", {}):
                continue
            value = current["metrics"][name]
            limit = bound if threshold is None else threshold
            detail: dict[str, Any] = {"current": value, "better": better, "bound": limit}
            entry["metrics"][name] = detail
            past = [r["metrics"][name] for r in comparable if name in r.get("metrics", {})]
            if not past:
                detail["verdict"] = "no-baseline"
                continue
            compared = True
            baseline = statistics.median(past)
            detail["baseline"] = baseline
            # Positive = worse, as a fraction of the baseline.
            worse = (value - baseline) if better == "lower" else (baseline - value)
            detail["worse"] = worse / baseline if baseline > 0 else 0.0
            if detail["worse"] > limit:
                detail["verdict"] = "regression"
                regressions.append(f"{workload}.{name}")
            else:
                detail["verdict"] = "ok"

    status = "regression" if regressions else "ok" if compared else "no-data"
    return {
        "status": status,
        "threshold": threshold,
        "workloads": workloads,
        "regressions": regressions,
    }


def format_diff(result: Mapping[str, Any]) -> str:
    """Human-readable rendering of a :func:`diff_history` result."""
    threshold = result.get("threshold")
    bound = "per-metric bound" if threshold is None else f"{threshold:.0%}"
    lines = [f"perf diff: status={result['status']} threshold={bound}"]
    for workload, entry in result.get("workloads", {}).items():
        head = (
            f"  {workload}: fingerprint={entry['fingerprint']} trace={entry['trace']}"
            f" baseline_rows={entry['baseline_rows']}"
        )
        if "verdict" in entry:
            head += f" {entry['verdict']}"
        lines.append(head)
        for name, detail in entry["metrics"].items():
            parts = [f"    {name}: {detail['verdict']}", f"current={detail['current']:.6g}"]
            if "baseline" in detail:
                parts.append(f"median={detail['baseline']:.6g}")
                parts.append(f"worse={detail['worse']:+.1%} (bound {detail['bound']:.0%})")
            lines.append(" ".join(parts))
    if result.get("regressions"):
        lines.append(f"REGRESSION in: {', '.join(result['regressions'])}")
    return "\n".join(lines)
