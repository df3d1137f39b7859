"""Perf spans are the one in-program timer.

Every run kind times its blocks with :func:`repro.obs.perf.span` alone:
no metrics snapshot carries a ``time.*`` histogram, each run kind still
records its span when profiling is on, ``REPRO_PERF=0`` leaves no
wall-clock data at all, and ``trace summarize`` reads its wall-clock
lines from the spans wherever they nested.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.agents import TruthfulAgent
from repro.dlt.batch import solve_linear_batch, solve_star_batch
from repro.mechanism.dls_lil import DLSLILMechanism
from repro.mechanism.population import run_population
from repro.mechanism.rows import run_rows
from repro.obs.metrics import collecting
from repro.obs.perf import set_enabled, span_total
from repro.obs.summary import summarize_trace
from repro.runtime.session import run_resilient


def _lil_run() -> None:
    w = [2.0, 3.0, 2.5, 4.0]
    agents = [TruthfulAgent(i, rate) for i, rate in enumerate(w) if i != 1]
    DLSLILMechanism(
        [0.5, 0.3, 0.7], 1, w[1], agents,
        audit_probability=1.0, rng=np.random.default_rng(0),
    ).run()


def _kernels() -> None:
    solve_linear_batch([[2.0, 2.0], [3.0, 1.0]], [[1.0], [0.5]])
    solve_star_batch([[2.0, 2.0, 3.0]], [[1.0, 0.5]])


def _star_rows():
    """A stacked star row, then a traced one on the lane engine."""
    stacked = run_rows("star", 3, 0.5, [1], [None])
    traced = run_rows("star", 3, 0.5, [2], ["2:contradict"], trace=True)
    return SimpleNamespace(snapshots=stacked.snapshots + traced.snapshots)


#: run kind -> (callable, span path suffixes it must record).
RUN_KINDS = {
    "scalar_population": (
        lambda: run_population(3, 3, seed=1),
        ["mechanism"] + [f"mechanism.phase_{k}" for k in range(1, 5)],
    ),
    "batch_population": (
        lambda: run_population(3, 3, seed=1, use_batch=True),
        ["mech_batch", "mech_batch.phase_1.solve.batch_linear"],
    ),
    # Only traced rows take the lane engine.
    "lane_row": (
        lambda: run_rows("chain", 3, 0.5, [1], ["3:miscompute"], trace=True),
        ["mechanism", "mechanism.phase_4"],
    ),
    "star_rows": (_star_rows, ["mech_batch_star", "mechanism_star"]),
    "tree_row": (lambda: run_rows("tree", 3, 0.5, [1], [None]), ["mechanism_tree"]),
    "dls_lil": (_lil_run, ["mechanism_lil"]),
    "resilient_runtime": (
        lambda: run_resilient([1.0, 2.0, 3.0], [0.1, 0.2]),
        ["runtime", "runtime.epoch"],
    ),
    "batch_kernels": (_kernels, ["solve.batch_linear", "solve.batch_star"]),
}


def _histograms(fn) -> dict:
    """Every histogram the call records: the live delta plus any
    unmerged per-row or per-population snapshots it returns."""
    with collecting(merge=False) as registry:
        result = fn()
        hists = dict(registry.snapshot()["histograms"])
    for snap in getattr(result, "snapshots", None) or []:
        hists.update(snap.get("histograms", {}))
    hists.update(getattr(result, "metrics", {}).get("histograms", {}))
    return hists


@pytest.fixture
def profiling():
    previous = set_enabled(True)
    yield
    set_enabled(previous)


@pytest.fixture
def no_profiling():
    previous = set_enabled(False)
    yield
    set_enabled(previous)


@pytest.mark.parametrize("kind", sorted(RUN_KINDS))
def test_no_time_histograms_and_spans_recorded(kind, profiling):
    fn, suffixes = RUN_KINDS[kind]
    hists = _histograms(fn)
    assert not [name for name in hists if name.startswith("time.")]
    for suffix in suffixes:
        assert span_total(hists, suffix)[0] > 0, (kind, suffix, sorted(hists))


@pytest.mark.parametrize("kind", sorted(RUN_KINDS))
def test_profiling_off_leaves_no_wall_clock(kind, no_profiling):
    hists = _histograms(RUN_KINDS[kind][0])
    assert not [name for name in hists if name.startswith(("time.", "perf."))]


def test_mechanism_span_count_equals_runs(profiling):
    result = run_population(3, 5, seed=4, deviant="2:shed")
    count, total = span_total(result.metrics["histograms"], "mechanism")
    assert count == result.metrics["counters"]["mechanism.runs"] == 5
    assert total > 0.0


def _hist(count: int, total: float) -> dict:
    return {"count": count, "total": total, "mean": total / count}


class TestSummaryFromSpans:
    def test_sums_spans_over_every_nesting(self):
        histograms = {
            "perf.mechanism": _hist(2, 1.0),
            "perf.mechanism.phase_1": _hist(2, 0.25),
            "perf.runtime.epoch.mechanism": _hist(1, 0.5),
            "perf.runtime.epoch.mechanism.phase_1": _hist(1, 0.125),
            "perf.serve.flush.lane.mechanism": _hist(1, 0.5),
            "perf.serve.flush.lane.mechanism.phase_1": _hist(1, 0.125),
            "perf.mech_batch.phase_1": _hist(1, 9.0),
        }
        text = summarize_trace([], {"histograms": histograms})
        phase_1 = next(line for line in text.splitlines() if line.startswith("phase_1"))
        assert phase_1.split()[-1] == "0.5"
        phase_2 = next(line for line in text.splitlines() if line.startswith("phase_2"))
        assert phase_2.split()[-1] == "-"
        assert "mechanism wall-clock: 4 runs, total 2s, mean 0.5s" in text

    def test_dash_without_perf_spans(self):
        histograms = {"serve.batch_size": _hist(1, 4.0)}
        text = summarize_trace([], {"histograms": histograms})
        for kind in ("phase_1", "phase_2", "phase_3", "phase_4"):
            line = next(line for line in text.splitlines() if line.startswith(kind))
            assert line.split()[-1] == "-"
        assert "mechanism wall-clock" not in text
