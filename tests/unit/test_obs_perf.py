"""Unit tests for the perf span layer (repro.obs.perf).

Covers span-path nesting, enable/disable, the self/cumulative span tree,
the report renderers, and the hard invariant that profiling emits zero
events into the deterministic trace stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import collecting, get_registry
from repro.obs.perf import (
    PerfProfiler,
    format_latency_table,
    format_span_tree,
    perf_enabled,
    set_enabled,
    span,
    span_tree,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    get_registry().reset()
    yield
    get_registry().reset()


class TestSpans:
    def test_nested_spans_build_dotted_paths(self):
        with collecting() as scoped:
            with span("mechanism"):
                with span("phase_1"):
                    with span("bidding"):
                        pass
                with span("phase_2"):
                    pass
            hists = scoped.snapshot()["histograms"]
        assert set(hists) == {
            "perf.mechanism",
            "perf.mechanism.phase_1",
            "perf.mechanism.phase_1.bidding",
            "perf.mechanism.phase_2",
        }
        assert all(h["count"] == 1 for h in hists.values())

    def test_repeated_spans_accumulate_counts(self):
        with collecting() as scoped:
            for _ in range(5):
                with span("solve"):
                    pass
            hist = scoped.snapshot()["histograms"]["perf.solve"]
        assert hist["count"] == 5
        assert hist["total"] >= 0.0

    def test_parent_total_covers_child_total(self):
        with collecting() as scoped:
            with span("outer"):
                with span("inner"):
                    sum(range(1000))
            hists = scoped.snapshot()["histograms"]
        assert hists["perf.outer"]["total"] >= hists["perf.outer.inner"]["total"]

    def test_exception_still_records_and_pops_the_stack(self):
        profiler = PerfProfiler(enabled=True)
        with collecting() as scoped:
            with pytest.raises(ValueError):
                with profiler.span("boom"):
                    raise ValueError("x")
            hists = scoped.snapshot()["histograms"]
        assert hists["perf.boom"]["count"] == 1
        assert profiler.current_path() is None

    def test_disabled_profiler_records_nothing(self):
        profiler = PerfProfiler(enabled=False)
        with collecting() as scoped:
            with profiler.span("quiet"):
                pass
            hists = scoped.snapshot()["histograms"]
        assert hists == {}

    def test_set_enabled_toggles_module_spans(self):
        previous = set_enabled(False)
        try:
            assert not perf_enabled()
            with collecting() as scoped:
                with span("off"):
                    pass
                assert scoped.snapshot()["histograms"] == {}
        finally:
            set_enabled(previous)

    def test_env_flag_disables_profiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF", "0")
        assert PerfProfiler().enabled is False
        monkeypatch.setenv("REPRO_PERF", "1")
        assert PerfProfiler().enabled is True

    def test_span_inside_collecting_lands_in_that_scope(self):
        with collecting() as outer:
            with collecting() as inner:
                with span("scoped"):
                    pass
                assert "perf.scoped" in inner.snapshot()["histograms"]
            # After inner folds back, the outer scope has it too.
            assert "perf.scoped" in outer.snapshot()["histograms"]


def _hists(*entries):
    return {
        name: {"count": count, "total": total}
        for name, count, total in entries
    }


class TestSpanTree:
    def test_self_time_is_total_minus_direct_children(self):
        nodes = span_tree(
            _hists(
                ("perf.mech", 1, 1.0),
                ("perf.mech.phase_1", 1, 0.3),
                ("perf.mech.phase_2", 1, 0.5),
            )
        )
        assert nodes["mech"]["self"] == pytest.approx(0.2)
        assert nodes["mech"]["children"] == ["mech.phase_1", "mech.phase_2"]
        assert nodes["mech.phase_1"]["self"] == pytest.approx(0.3)

    def test_self_time_floors_at_zero(self):
        # Children observed in worker processes can sum past the parent.
        nodes = span_tree(_hists(("perf.p", 1, 0.1), ("perf.p.c", 4, 0.3)))
        assert nodes["p"]["self"] == 0.0

    def test_unmeasured_interior_nodes_are_synthesized(self):
        nodes = span_tree(
            _hists(
                ("perf.experiments.T2_1", 1, 0.4),
                ("perf.experiments.T2_2", 1, 0.6),
            )
        )
        assert nodes["experiments"]["measured"] is False
        assert nodes["experiments"]["total"] == pytest.approx(1.0)
        assert nodes["experiments"]["self"] == 0.0

    def test_non_perf_histograms_are_ignored(self):
        nodes = span_tree(_hists(("time.solve", 3, 1.0), ("perf.a", 1, 0.1)))
        assert set(nodes) == {"a"}

    def test_format_span_tree_renders_all_paths(self):
        text = format_span_tree(
            _hists(("perf.mech", 1, 1.0), ("perf.mech.phase_1", 1, 0.3))
        )
        assert "mech" in text and "phase_1" in text
        assert "total" in text and "self" in text and "count" in text

    def test_format_span_tree_empty(self):
        assert "no perf spans" in format_span_tree({})


class TestLatencyTable:
    def test_table_lists_only_perf_histograms_with_quantiles(self):
        with collecting() as scoped:
            for v in (0.001, 0.002, 0.004):
                get_registry().observe("perf.solve", v)
            get_registry().observe("time.batch", 0.5)
            get_registry().observe("other.ignored", 1.0)
            hists = scoped.snapshot()["histograms"]
        text = format_latency_table(hists)
        assert "perf.solve" in text
        assert "time.batch" not in text
        assert "other.ignored" not in text
        assert "p95" in text and "p99" in text

    def test_table_empty(self):
        assert "no latency histograms" in format_latency_table({})


class TestTraceIsolation:
    def test_profiling_emits_zero_trace_events(self):
        """The hard invariant: identical byte-level traces with the
        profiler on and off, and no event originates from a span."""
        from repro.agents import TruthfulAgent
        from repro.mechanism.dls_lbl import DLSLBLMechanism
        from repro.obs.tracer import Tracer, events_to_jsonl

        def run_traced():
            tracer = Tracer()
            agents = [TruthfulAgent(1, 2.0), TruthfulAgent(2, 3.0)]
            DLSLBLMechanism(
                [0.5, 0.7],
                1.5,
                agents,
                audit_probability=0.5,
                rng=np.random.default_rng(7),
                tracer=tracer,
            ).run()
            return events_to_jsonl(tracer.events)

        enabled_trace = run_traced()
        previous = set_enabled(False)
        try:
            disabled_trace = run_traced()
        finally:
            set_enabled(previous)
        assert enabled_trace == disabled_trace

    def test_spans_do_record_metrics_for_that_same_run(self):
        from repro.agents import TruthfulAgent
        from repro.mechanism.dls_lbl import DLSLBLMechanism

        with collecting() as scoped:
            agents = [TruthfulAgent(1, 2.0), TruthfulAgent(2, 3.0)]
            DLSLBLMechanism(
                [0.5, 0.7],
                1.5,
                agents,
                audit_probability=0.5,
                rng=np.random.default_rng(7),
            ).run()
            hists = scoped.snapshot()["histograms"]
        for path in (
            "perf.mechanism",
            "perf.mechanism.bidding",
            "perf.mechanism.phase_1",
            "perf.mechanism.phase_2",
            "perf.mechanism.phase_3",
            "perf.mechanism.phase_3.simulate",
            "perf.mechanism.phase_4",
        ):
            assert hists[path]["count"] >= 1, path
