"""Identity-derived task seeds.

A dependency-free leaf: the experiment runner, the population runner and
the fault-scenario runner all derive per-task randomness here, and none
of them should have to import the others (or the experiment registry) to
do it.
"""

from __future__ import annotations

import hashlib

__all__ = ["task_seed"]


def task_seed(name: str, base_seed: int = 0) -> int:
    """Deterministic 32-bit seed for task ``name``.

    Derived by hashing ``base_seed`` and the task name with SHA-256
    (stable across processes and Python invocations, unlike ``hash()``),
    so a task's seed depends only on *what* it is — never on which worker
    runs it or in what order.
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")
