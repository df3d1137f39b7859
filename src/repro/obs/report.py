"""Metrics reports: a registry snapshot under a ``machine`` stanza.

This module renders a :class:`~repro.obs.metrics.MetricsRegistry`
snapshot as a small JSON document with the machine it ran on, so
profiling output from any entry point — the CLI ``run`` and ``faults
run`` commands' ``--metrics`` flag — is uniform and diffable, and
``python -m repro perf report --metrics`` renders its span tree.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Any, Mapping

from repro.obs.metrics import get_registry

__all__ = ["machine_info", "metrics_report", "write_metrics_report"]


def machine_info() -> dict[str, Any]:
    """The ``machine`` stanza of every metrics report and benchmark run."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }


def metrics_report(snapshot: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """A metrics report: machine info plus a metrics snapshot.

    ``snapshot`` defaults to the active registry's current state.
    """
    snap = dict(snapshot) if snapshot is not None else get_registry().snapshot()
    return {
        "machine": machine_info(),
        "counters": dict(sorted(snap.get("counters", {}).items())),
        "gauges": dict(sorted(snap.get("gauges", {}).items())),
        "histograms": dict(sorted(snap.get("histograms", {}).items())),
    }


def write_metrics_report(
    path: str | os.PathLike[str], snapshot: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Write :func:`metrics_report` to ``path`` as indented JSON."""
    report = metrics_report(snapshot)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
