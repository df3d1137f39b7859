"""Unit tests for the metrics registry (repro.obs.metrics) and the
crypto-counter compatibility shim that now rides on it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import (
    CounterColumns,
    MetricsRegistry,
    collecting,
    fold_snapshots,
    get_registry,
    merge_snapshots,
)


@pytest.fixture(autouse=True)
def _clean_root_registry():
    get_registry().reset()
    yield
    get_registry().reset()


class TestRegistryBasics:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2.5)
        assert reg.counter("a") == 3.5
        assert reg.counter("missing") == 0.0

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.0)
        assert reg.gauge("g") == 7.0
        assert reg.gauge("missing") is None

    def test_histograms_track_count_total_min_max_mean(self):
        reg = MetricsRegistry()
        for v in (2.0, 4.0, 6.0):
            reg.observe("h", v)
        hist = reg.snapshot()["histograms"]["h"]
        assert hist == {
            "count": 3,
            "total": 12.0,
            "min": 2.0,
            "max": 6.0,
            "mean": 4.0,
            "p50": 4.0,
            "p95": 6.0,
            "p99": 6.0,
            "buckets": {"8": [1, 2.0], "12": [1, 4.0], "14": [1, 6.0]},
        }

    def test_reset_prefix(self):
        reg = MetricsRegistry()
        reg.inc("crypto.sigs")
        reg.inc("ledger.transfers")
        reg.reset("crypto.")
        snap = reg.snapshot()
        assert "crypto.sigs" not in snap["counters"]
        assert snap["counters"]["ledger.transfers"] == 1.0


def _snap(counters=(), gauges=(), observations=()):
    reg = MetricsRegistry()
    for name, value in counters:
        reg.inc(name, value)
    for name, value in gauges:
        reg.set_gauge(name, value)
    for name, value in observations:
        reg.observe(name, value)
    return reg.snapshot()


class TestMergeAssociativity:
    # Values are exactly representable in binary so float addition cannot
    # introduce grouping-dependent rounding.
    A = _snap(counters=[("c", 1.0), ("only_a", 2.0)], gauges=[("g", 1.0)], observations=[("h", 2.0)])
    B = _snap(counters=[("c", 4.0)], gauges=[("g", 2.0)], observations=[("h", 8.0), ("h", 0.5)])
    C = _snap(counters=[("c", 0.25)], gauges=[("g", 3.0), ("only_c", 1.0)], observations=[("h", 64.0)])

    def test_merge_is_associative(self):
        assert merge_snapshots([merge_snapshots([self.A, self.B]), self.C]) == merge_snapshots(
            [self.A, merge_snapshots([self.B, self.C])]
        )

    def test_merge_matches_flat_fold(self):
        flat = merge_snapshots([self.A, self.B, self.C])
        assert flat["counters"]["c"] == 5.25
        assert flat["gauges"]["g"] == 3.0  # last write wins
        assert flat["histograms"]["h"]["count"] == 4
        assert flat["histograms"]["h"]["min"] == 0.5
        assert flat["histograms"]["h"]["max"] == 64.0

    def test_empty_histogram_snapshot_merges_as_noop(self):
        reg = MetricsRegistry()
        reg.merge({"histograms": {"h": {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0}}})
        snap = reg.snapshot()
        assert snap["histograms"] == {}


def _hexed(counters):
    """Counter keys in order, values as ``float.hex``."""
    return [(name, value.hex()) for name, value in counters.items()]


class TestFoldSnapshots:
    def test_fold_equals_per_snapshot_merges(self):
        """Counters-only and mixed snapshots: both targets match one
        ``merge`` call per snapshot, from a non-zero starting registry
        (float fold order included)."""
        rows = [
            {"counters": {"c": 0.1, "n": 1.0}},
            TestMergeAssociativity.A,
            {"counters": {"c": 0.2, "new": 3.0}},
            TestMergeAssociativity.B,
            {"counters": {"c": 0.3}},
        ]
        start = {"counters": {"c": 0.7}, "histograms": {}}
        reference = MetricsRegistry()
        reference.merge(start)
        for snap in rows:
            reference.merge(snap)
        live = MetricsRegistry()
        live.merge(start)
        own = fold_snapshots(rows, live)
        assert live.snapshot() == reference.snapshot()
        assert own == merge_snapshots(rows)

    def test_column_block_folds_as_its_row_dicts(self):
        """A :class:`CounterColumns` block among dict and histogram
        snapshots folds as one merge per row dict, from a non-empty
        start: same keys in the same order, same floats bitwise, an
        absent cell adding nothing and a column no row has staying
        absent from both maps."""
        block = CounterColumns(
            names=("c", "late", "never", "v"),
            values=np.array([[0.1, 0.0, 0.0, 0.3], [0.0, 2.0, 0.0, 0.7], [0.2, 1.0, 0.0, 0.1]]),
            present=np.array(
                [[True, False, False, True], [False, True, False, True], [True, True, False, True]]
            ),
        )
        assert [snap["counters"] for snap in block] == [
            {"c": 0.1, "v": 0.3},
            {"late": 2.0, "v": 0.7},
            {"c": 0.2, "late": 1.0, "v": 0.1},
        ]
        items = [
            {"counters": {"c": 0.3, "n": 1.0}},
            block,
            TestMergeAssociativity.B,
            {"counters": {"v": 0.2, "new": 3.0}},
        ]
        start = {"counters": {"v": 0.7, "c": 1.1}, "histograms": {}}
        reference = MetricsRegistry()
        reference.merge(start)
        own_reference = MetricsRegistry()
        for item in items:
            for snap in block.snapshots() if item is block else [item]:
                reference.merge(snap)
                own_reference.merge(snap)
        live = MetricsRegistry()
        live.merge(start)
        own = fold_snapshots(items, live)
        assert _hexed(live.snapshot()["counters"]) == _hexed(reference.snapshot()["counters"])
        assert _hexed(own["counters"]) == _hexed(own_reference.snapshot()["counters"])
        assert live.snapshot() == reference.snapshot()
        assert own == own_reference.snapshot()
        assert "never" not in live.snapshot()["counters"] and "never" not in own["counters"]
        assert all(type(v) is float for v in own["counters"].values())


class TestCollecting:
    def test_collecting_scopes_a_delta(self):
        get_registry().inc("n", 10.0)
        with collecting() as scoped:
            get_registry().inc("n", 3.0)
            assert scoped.counter("n") == 3.0
        # The delta folded back into the enclosing registry on exit.
        assert get_registry().counter("n") == 13.0

    def test_collecting_nests(self):
        with collecting() as outer:
            get_registry().inc("n")
            with collecting() as inner:
                get_registry().inc("n", 5.0)
                assert inner.counter("n") == 5.0
            assert outer.counter("n") == 6.0

    def test_snapshot_inside_scope_is_picklable_plain_dict(self):
        import pickle

        with collecting() as scoped:
            get_registry().inc("n")
            snap = scoped.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
