"""Integration tests for checkpointed experiment runs and resume.

The acceptance criterion: an interrupted ``--checkpoint`` run, resumed
with the same arguments, produces results byte-for-byte identical to an
uninterrupted run — across serial and pooled execution, full and partial
journals, and a journal truncated mid-write by a kill.
"""

from __future__ import annotations

from repro.cli import main
from repro.experiments.runner import run_experiments, run_replications
from repro.runtime import CheckpointJournal, task_key

IDS = ["F3", "T2.1"]


def _summaries(runs):
    # Durations are wall clock (preserved only for *restored* tasks), so
    # resume identity is judged on the result payloads.
    return [(run.exp_id, run.seed, run.result.format()) for run in runs]


class TestCheckpointedRuns:
    def test_fresh_checkpointed_run_matches_plain_run(self, tmp_path):
        plain = run_experiments(IDS)
        checkpointed = run_experiments(IDS, checkpoint=tmp_path / "j.jsonl")
        assert _summaries(plain) == _summaries(checkpointed)

    def test_resume_from_complete_journal_is_identical(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        first = run_experiments(IDS, checkpoint=journal)
        resumed = run_experiments(IDS, checkpoint=journal)
        assert _summaries(first) == _summaries(resumed)

    def test_resume_from_partial_journal_is_identical(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        baseline = run_experiments(IDS)
        # Simulate an interrupted run: only the first task was journaled.
        run_experiments(IDS[:1], checkpoint=journal_path)
        resumed = run_experiments(IDS, checkpoint=journal_path)
        assert _summaries(baseline) == _summaries(resumed)
        # The resumed run journaled the remaining task.
        journal = CheckpointJournal(journal_path)
        assert all(
            task_key(exp_id, None, {}) in journal for exp_id in IDS
        )

    def test_resume_from_killed_mid_write_journal(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        run_experiments(IDS, checkpoint=journal_path)
        baseline = run_experiments(IDS)
        # A writer killed mid-append leaves a partial final line.
        raw = journal_path.read_bytes()
        journal_path.write_bytes(raw[: len(raw) - 25])
        resumed = run_experiments(IDS, checkpoint=journal_path)
        assert _summaries(baseline) == _summaries(resumed)

    def test_journal_keys_are_identity_scoped(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        run_experiments(["F3"], checkpoint=journal_path)
        journal = CheckpointJournal(journal_path)
        assert task_key("F3", None, {}) in journal
        # A different seed is a different identity: not restored.
        assert task_key("F3", 123, {}) not in journal


class TestReplicationsResume:
    def test_pooled_resume_matches_serial(self, tmp_path):
        serial = run_replications("T2.1", 4, base_seed=3, n_trials=20)
        journal = tmp_path / "reps.jsonl"
        # Interrupt: journal only two replications, then resume pooled.
        run_replications("T2.1", 2, base_seed=3, checkpoint=journal, n_trials=20)
        resumed = run_replications(
            "T2.1", 4, base_seed=3, jobs=2, checkpoint=journal, n_trials=20
        )
        assert _summaries(serial) == _summaries(resumed)


class TestCheckpointCli:
    def test_cli_resume_output_identical(self, tmp_path, capsys):
        journal = tmp_path / "j.jsonl"
        assert main(["experiments", "F3", "--checkpoint", str(journal)]) == 0
        first = capsys.readouterr().out
        assert main(["experiments", "F3", "--checkpoint", str(journal)]) == 0
        resumed = capsys.readouterr().out
        assert first == resumed
