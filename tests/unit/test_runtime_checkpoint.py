"""Unit tests for the checkpoint journal (repro.runtime.checkpoint)."""

from __future__ import annotations

import json

from repro.runtime import CheckpointJournal, task_key


class TestTaskKey:
    def test_stable_across_calls(self):
        a = task_key("X1", 0, {})
        b = task_key("X1", 0, {})
        assert a == b and len(a) == 32

    def test_sensitive_to_every_identity_field(self):
        base = task_key("X1", 0, {})
        assert task_key("X2", 0, {}) != base
        assert task_key("X1", 1, {}) != base
        assert task_key("X1", 0, {"m": 5}) != base
        assert task_key("X1", 0, {}, replication=0) != base

    def test_kwargs_order_irrelevant(self):
        assert task_key("X1", 0, {"a": 1, "b": 2}) == task_key("X1", 0, {"b": 2, "a": 1})


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        assert len(journal) == 0
        key = task_key("X1", 0, {})
        outcome = ({"value": 42}, 1.25, {"counters": {"runs": 1.0}})
        journal.record(key, outcome, exp_id="X1", seed=0)
        reloaded = CheckpointJournal(path)
        assert key in reloaded and len(reloaded) == 1
        assert reloaded.get(key) == outcome

    def test_missing_key_returns_none(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        assert journal.get("deadbeef") is None
        assert "deadbeef" not in journal

    def test_partial_final_line_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record(task_key("X1", 0, {}), ("r1", 0.1, {}), exp_id="X1")
        journal.record(task_key("X2", 0, {}), ("r2", 0.2, {}), exp_id="X2")
        # Simulate a writer killed mid-append: truncate into the last line.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])
        recovered = CheckpointJournal(path)
        assert len(recovered) == 1
        assert recovered.get(task_key("X1", 0, {})) == ("r1", 0.1, {})

    def test_foreign_version_records_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"v": 999, "key": "abc", "payload": "not-base64!"}) + "\n"
        )
        journal = CheckpointJournal(path)
        assert len(journal) == 0

    def test_lines_are_self_describing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record(
            task_key("X3", 7, {}, replication=2),
            ("r", 0.0, {}),
            exp_id="X3",
            seed=7,
            replication=2,
        )
        record = json.loads(path.read_text().splitlines()[0])
        assert record["exp_id"] == "X3"
        assert record["seed"] == 7
        assert record["replication"] == 2

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record(task_key("X1", 0, {}), ("r", 0.0, {}))
        assert path.exists()
