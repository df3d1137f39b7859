"""Result containers and table formatting for the experiment suite.

Every experiment returns an :class:`ExperimentResult` holding one or more
:class:`Table` objects (the rows/series the paper's evaluation would
report) plus a pass/fail verdict for the property being validated, so
benchmarks can both *print* the reproduction and *assert* it.
:func:`best_of` is the one way the experiments time a block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = ["Table", "ExperimentResult", "best_of"]


def best_of(fn: Callable[[], Any], *, repeats: int) -> float:
    """The fastest of ``repeats`` wall-clock timings of ``fn()``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Table:
    """One printable table of results."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(values)

    def format(self, *, float_fmt: str = "{:.6g}") -> str:
        """Render as aligned plain text."""

        def cell(value: Any) -> str:
            if isinstance(value, float):
                return float_fmt.format(value)
            return str(value)

        rendered = [[cell(v) for v in row] for row in self.rows]
        widths = [
            max(len(str(col)), *(len(r[j]) for r in rendered)) if rendered else len(str(col))
            for j, col in enumerate(self.columns)
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(self.columns, widths)))
        for row in rendered:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    experiment_id: str
    description: str
    tables: list[Table]
    passed: bool
    summary: str

    def format(self) -> str:
        header = f"=== {self.experiment_id}: {self.description} ==="
        body = "\n\n".join(t.format() for t in self.tables)
        verdict = f"[{'PASS' if self.passed else 'FAIL'}] {self.summary}"
        return f"{header}\n{body}\n{verdict}"

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.format())
