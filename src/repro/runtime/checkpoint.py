"""Per-task completion journal for the experiment runner.

A :class:`CheckpointJournal` is an append-only JSONL file recording every
finished experiment task — its identity key and its pickled outcome.  An
interrupted ``python -m repro experiments --checkpoint J`` run can be
re-invoked with the same arguments: tasks whose keys appear in the
journal are restored instead of re-executed, and because every task's
result is a pure function of its identity (seed derivation in
:func:`repro.seeding.task_seed`), the resumed run's output is
identical to an uninterrupted run's.

Design constraints the format serves:

- **Crash-safe appends.**  One task per line, flushed and fsynced as each
  task completes; a process killed mid-write leaves at most one partial
  final line, which :meth:`CheckpointJournal.load` skips.
- **Identity, not position.**  A task's key hashes the full call identity
  (experiment id, seed, keyword overrides, replication index), so
  resuming with a *different* task list simply misses the journal and
  recomputes — stale entries are inert, never wrong.
- **Self-describing lines.**  Each record carries the readable identity
  fields next to the opaque payload, so ``jq`` over the journal shows
  what has finished without unpickling anything.

The payload is a base64-encoded pickle of ``(result, duration, metrics
snapshot)`` — exactly what the worker entry point returns — restored on
resume so metrics reports and formatted output match the uninterrupted
run.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from typing import Any, Mapping

__all__ = ["CheckpointJournal", "task_key"]

#: Journal format version; bumped on incompatible record changes.  Loads
#: skip records from other versions (they re-run, never mis-restore).
_VERSION = 1


def task_key(
    exp_id: str,
    seed: int | None,
    kwargs: Mapping[str, Any],
    replication: int | None = None,
) -> str:
    """Stable identity hash of one experiment task.

    Uses ``repr`` for keyword values (sorted by name) rather than JSON so
    non-JSON-serializable overrides still key deterministically; two
    tasks share a key exactly when the runner would call the experiment
    identically.
    """
    identity = (
        exp_id,
        seed,
        tuple(sorted((str(k), repr(v)) for k, v in kwargs.items())),
        replication,
    )
    digest = hashlib.sha256(repr(identity).encode()).hexdigest()
    return digest[:32]


class CheckpointJournal:
    """Append-only JSONL journal of completed experiment tasks.

    Parameters
    ----------
    path:
        Journal file location; created (with parent directories) on the
        first :meth:`record`.  An existing file is loaded, so constructing
        a journal on a previous run's path is what *resume* means.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._done: dict[str, tuple[Any, float, dict[str, Any]]] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if record.get("v") != _VERSION:
                        continue
                    key = record["key"]
                    payload = pickle.loads(base64.b64decode(record["payload"]))
                except Exception:
                    # A partial final line from a killed writer, or a
                    # foreign record: skip — the task will simply re-run.
                    continue
                self._done[key] = payload

    def __contains__(self, key: str) -> bool:
        return key in self._done

    def __len__(self) -> int:
        return len(self._done)

    def get(self, key: str) -> tuple[Any, float, dict[str, Any]] | None:
        """The journaled ``(result, duration, metrics)`` outcome, if any."""
        return self._done.get(key)

    def record(
        self,
        key: str,
        outcome: tuple[Any, float, dict[str, Any]],
        *,
        exp_id: str = "",
        seed: int | None = None,
        replication: int | None = None,
    ) -> None:
        """Append one completed task, durably (flush + fsync per line)."""
        self._done[key] = outcome
        payload = base64.b64encode(
            pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        record = {
            "v": _VERSION,
            "key": key,
            "exp_id": exp_id,
            "seed": seed,
            "replication": replication,
            "payload": payload,
        }
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
