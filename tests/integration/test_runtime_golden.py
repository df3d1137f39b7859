"""Golden pins for the resilient runtime and the fault-scenario runner.

Five files under ``tests/data/`` pin what the runtime and the runner
print, byte for byte:

- ``runtime_experiments.txt`` — the ``format()`` text of X11 (the fault
  catalog) and X12 (the resilient runtime);
- ``faults_run_all.txt`` — the stdout of ``faults run --scenario all
  --seed 0``;
- ``faults_fuzz_report.json`` — the report of ``faults fuzz --seed 11
  --count 15``;
- ``golden_trace_byz_crash_mix.jsonl`` and ``byz_crash_mix_metrics.json``
  — the trace and the metrics report of ``faults run --scenario
  byz_crash_mix --seed 0``.  The metrics pin keeps the counters, the
  gauges and the simulated-time histograms whole; of the wall-clock
  ``perf.*`` histograms it keeps only the span counts, and it drops the
  machine stanza.

They were written by running this module as a script against the
sources of the commit that introduced them::

    git archive <commit> src | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src:. python tests/integration/test_runtime_golden.py

The script writes the five files into ``tests/data/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

from repro.cli import main
from repro.experiments.runner import run_experiments
from repro.obs.perf import set_enabled

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

EXPERIMENTS = "runtime_experiments.txt"
RUN_ALL = "faults_run_all.txt"
FUZZ = "faults_fuzz_report.json"
TRACE = "golden_trace_byz_crash_mix.jsonl"
METRICS = "byz_crash_mix_metrics.json"


def _cli(*argv: str) -> str:
    """Run the CLI in-process with the profiler on; return its stdout."""
    out = io.StringIO()
    previous = set_enabled(True)
    try:
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
    finally:
        set_enabled(previous)
    return out.getvalue()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _deterministic_metrics(text: str) -> str:
    """A metrics report minus what depends on the machine or the clock."""
    report = json.loads(text)
    histograms = {
        name: {"count": hist["count"]} if name.startswith("perf.") else hist
        for name, hist in report["histograms"].items()
    }
    kept = {"counters": report["counters"], "gauges": report["gauges"], "histograms": histograms}
    return json.dumps(kept, indent=2, sort_keys=True) + "\n"


def render() -> dict[str, str]:
    """Every pinned file's text, keyed by file name."""
    texts = {}
    sections = []
    for exp_id in ("X11", "X12"):
        [run] = run_experiments([exp_id])
        sections.append(f"### {exp_id}\n{run.result.format()}\n")
    texts[EXPERIMENTS] = "".join(sections)
    texts[RUN_ALL] = _cli("faults", "run", "--scenario", "all", "--seed", "0")
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "fuzz.json")
        _cli("faults", "fuzz", "--seed", "11", "--count", "15", "--report", report)
        texts[FUZZ] = _read(report)
        trace, metrics = os.path.join(tmp, "byz.jsonl"), os.path.join(tmp, "metrics.json")
        _cli(
            "faults", "run", "--scenario", "byz_crash_mix", "--seed", "0",
            "--trace", trace, "--metrics", metrics,
        )
        texts[TRACE] = _read(trace)
        texts[METRICS] = _deterministic_metrics(_read(metrics))
    return texts


@pytest.fixture(scope="module")
def rendered() -> dict[str, str]:
    return render()


@pytest.mark.parametrize("name", [EXPERIMENTS, RUN_ALL, FUZZ, TRACE, METRICS])
def test_matches_golden(rendered, name):
    assert rendered[name] == _read(os.path.join(DATA, name))


if __name__ == "__main__":
    for name, text in render().items():
        with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
            fh.write(text)
