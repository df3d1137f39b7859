"""Benchmark trajectory: fingerprints, BENCH_history.jsonl, perf diff.

``BENCH_batch.json`` is a single overwritten snapshot, written by
``python -m repro perf record``; this module turns those runs into a
*trajectory*.  Every run appends one row to an append-only JSONL history
file, stamped with a machine fingerprint so numbers from different boxes
are never compared, and ``python -m repro perf diff`` gates the newest
row against the best same-machine baseline.

Three concerns live here:

- :func:`machine_fingerprint` — the ``machine`` stanza plus a short
  stable hash of it; every bench section and history row carries it.
- Section validity — :func:`annotate_sections` marks bench sections
  whose bitwise self-check failed.  Invalid rows stay in the record for
  honesty but are excluded from regression gating.
- The gate — :func:`history_row` extracts the gated seconds
  (``batch_solve``, ``mech_batch``, ``deviant_mix``, ``solve_cache``)
  from a bench record, :func:`append_history` persists the row, and
  :func:`diff_history` compares the latest row against the minimum of
  prior valid rows with the same fingerprint, flagging any gated metric
  that slowed by more than ``threshold`` (a fraction, e.g. 0.5 = 50%).

Timings are wall-clock and noisy; the default CI threshold is generous
on purpose.  Rows whose bitwise-equality self-check failed are recorded
but never gated — a wrong result's speed is not a number worth keeping.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from typing import Any, Iterable, Mapping

from repro.obs.report import machine_info

__all__ = [
    "machine_fingerprint",
    "annotate_sections",
    "history_row",
    "append_history",
    "read_history",
    "diff_history",
    "format_diff",
    "GATED_METRICS",
]

#: Bench sections whose timings participate in regression gating, and
#: where inside the record each gated number lives (seconds, lower is
#: better).  ``mech_batch``/``deviant_mix`` are only gated when their
#: bitwise self-check passed.
GATED_METRICS = ("batch_solve", "mech_batch", "deviant_mix", "solve_cache")


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


def annotate_sections(record: dict[str, Any]) -> dict[str, Any]:
    """Stamp every bench section with the fingerprint and a validity flag.

    Mutates and returns ``record``.  A section is invalid when its
    ``bitwise_equal`` self-check failed — its timing is that of a wrong
    result — and then carries an ``invalid_reason``.
    """
    machine = machine_fingerprint(record.get("machine"))
    record["machine"] = machine
    for name, section in record.items():
        # "perf" is an embedded metrics snapshot, not a bench section.
        if not isinstance(section, dict) or name in ("machine", "perf"):
            continue
        section["machine_fingerprint"] = machine["fingerprint"]
        section["valid"] = section.get("bitwise_equal") is not False
        if section["valid"]:
            section.pop("invalid_reason", None)
        else:
            section["invalid_reason"] = "bitwise self-check failed; timing of a wrong result"
    return record


def _gated_seconds(record: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    """Extract ``{metric: {seconds, valid}}`` for each gated metric."""
    out: dict[str, dict[str, Any]] = {}
    batch_solve = record.get("batch_solve") or {}
    if "batch_s" in batch_solve:
        out["batch_solve"] = {
            "seconds": batch_solve["batch_s"],
            "valid": bool(batch_solve.get("valid", True)),
        }
    mech = record.get("mech_batch") or {}
    if "batch_s" in mech:
        out["mech_batch"] = {
            "seconds": mech["batch_s"],
            "valid": bool(mech.get("valid", True)) and bool(mech.get("bitwise_equal", False)),
        }
    deviant = mech.get("deviant_mix") or {}
    if "batch_s" in deviant:
        out["deviant_mix"] = {
            "seconds": deviant["batch_s"],
            "valid": bool(deviant.get("bitwise_equal", False)),
        }
    cache = record.get("solve_cache") or {}
    if "warm_pass_s" in cache:
        out["solve_cache"] = {
            "seconds": cache["warm_pass_s"],
            "valid": bool(cache.get("valid", True)),
        }
    return out


def _workload_signature(record: Mapping[str, Any]) -> str:
    """Compact id of the bench workload sizes behind the gated numbers.

    Rows only gate against rows measuring the *same* work: a smoke-sized
    ``write_benchmark(n_networks=50, mech_count=20)`` run writes far
    smaller seconds than the default workload, and with a min-baseline
    it would make every subsequent full run read as a regression.
    """
    batch = record.get("batch_solve") or {}
    mech = record.get("mech_batch") or {}
    cache = record.get("solve_cache") or {}
    return (
        f"solve{batch.get('n_networks', '?')}x{batch.get('m', '?')}"
        f"/cache{cache.get('n_networks', '?')}"
        f"/mech{mech.get('m', '?')}x{mech.get('count', '?')}"
    )


def history_row(record: Mapping[str, Any], label: str | None = None) -> dict[str, Any]:
    """One append-only trajectory row distilled from a bench record.

    Rows are small on purpose — the full record stays in
    ``BENCH_batch.json``; the history keeps only what the gate and a
    trend plot need.  The timestamp is wall-clock (histories are not
    traces; they are allowed — required, even — to differ run to run).
    """
    machine = machine_fingerprint(record.get("machine"))
    row = {
        "schema": 1,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "fingerprint": machine["fingerprint"],
        "workload": _workload_signature(record),
        "cpu_count": machine.get("cpu_count"),
        "python": machine.get("python"),
        "gated": _gated_seconds(record),
    }
    if label:
        row["label"] = label
    return row


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


def diff_history(
    rows: Iterable[Mapping[str, Any]],
    threshold: float = 0.5,
    baseline_rows: Iterable[Mapping[str, Any]] | None = None,
) -> dict[str, Any]:
    """Gate the newest row against the best comparable baseline.

    The baseline for each gated metric is the *minimum* valid seconds
    over prior rows sharing the newest row's machine fingerprint *and*
    workload signature (min, not mean:
    wall-clock noise only ever slows things down, so the best past run
    is the honest capability of this machine).  A metric regresses when
    ``current > baseline * (1 + threshold)``.

    Returns ``{"status": "ok" | "regression" | "no-data",
    "fingerprint": ..., "metrics": {name: {...}}, "regressions": [...]}``.
    ``baseline_rows`` overrides the in-file baseline (the ``--baseline``
    flag): the newest row still comes from ``rows``.  ``threshold`` must
    be finite and non-negative: ``current > nan`` and ``current > inf``
    are never true, so such a gate would pass any slowdown.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    rows = list(rows)
    if not rows:
        return {"status": "no-data", "metrics": {}, "regressions": [], "reason": "empty history"}
    current = rows[-1]
    fingerprint = current.get("fingerprint")
    workload = current.get("workload")
    pool = list(baseline_rows) if baseline_rows is not None else rows[:-1]
    comparable = [
        r
        for r in pool
        if r.get("fingerprint") == fingerprint
        and r.get("workload") == workload
        and r is not current
    ]

    metrics: dict[str, Any] = {}
    regressions: list[str] = []
    for name in GATED_METRICS:
        entry = (current.get("gated") or {}).get(name)
        if entry is None:
            continue
        detail: dict[str, Any] = {"current_s": entry["seconds"], "valid": entry["valid"]}
        baselines = [
            r["gated"][name]["seconds"]
            for r in comparable
            if name in (r.get("gated") or {}) and r["gated"][name].get("valid", True)
        ]
        if not entry["valid"]:
            detail["verdict"] = "skipped-invalid"
        elif not baselines:
            detail["verdict"] = "no-baseline"
        else:
            best = min(baselines)
            detail["baseline_s"] = best
            detail["ratio"] = entry["seconds"] / best if best > 0 else float("inf")
            limit = best * (1.0 + threshold)
            if entry["seconds"] > limit and best > 0:
                detail["verdict"] = "regression"
                regressions.append(name)
            else:
                detail["verdict"] = "ok"
        metrics[name] = detail

    if not metrics:
        status = "no-data"
    elif regressions:
        status = "regression"
    elif all(m["verdict"] in ("no-baseline", "skipped-invalid") for m in metrics.values()):
        status = "no-data"
    else:
        status = "ok"
    return {
        "status": status,
        "fingerprint": fingerprint,
        "threshold": threshold,
        "baseline_rows": len(comparable),
        "metrics": metrics,
        "regressions": regressions,
    }


def format_diff(result: Mapping[str, Any]) -> str:
    """Human-readable rendering of a :func:`diff_history` result."""
    lines = [
        f"perf diff: status={result['status']}"
        f" fingerprint={result.get('fingerprint')}"
        f" baseline_rows={result.get('baseline_rows', 0)}"
        f" threshold={result.get('threshold', 0.0):.0%}"
    ]
    for name, detail in result.get("metrics", {}).items():
        parts = [f"  {name}: {detail['verdict']}", f"current={detail['current_s']:.4f}s"]
        if "baseline_s" in detail:
            parts.append(f"baseline={detail['baseline_s']:.4f}s")
            parts.append(f"ratio={detail['ratio']:.2f}x")
        lines.append(" ".join(parts))
    if result.get("regressions"):
        lines.append(f"REGRESSION in: {', '.join(result['regressions'])}")
    return "\n".join(lines)
