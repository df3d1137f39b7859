"""Parallel experiment runner: independent experiments and Monte-Carlo
replications across worker processes.

The experiments in :data:`repro.experiments.ALL_EXPERIMENTS` are pure
functions of their parameters, so the suite parallelizes trivially —
except that naive parallelism breaks reproducibility when seeds depend on
*which worker* picks up a task.  Here every task's seed is derived from
the task's *identity* (experiment id, replication index, base seed) via
SHA-256, so a run with ``--jobs 4`` is byte-identical to a serial run:
the pool only changes wall-clock time, never results.

Results are always returned in submission order (``ids`` order,
replication index order), regardless of completion order.  Speed is
measured by ``perfbench/``, not here.
"""

from __future__ import annotations

import inspect
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.experiments.harness import ExperimentResult
from repro.mechanism.rows import map_ordered
from repro.obs.metrics import collecting, get_registry
from repro.obs.perf import span as perf_span
from repro.runtime.checkpoint import CheckpointJournal, task_key
from repro.seeding import task_seed

__all__ = [
    "ExperimentRun",
    "task_seed",
    "run_experiments",
    "run_replications",
    "format_runs",
]


def _as_journal(
    checkpoint: str | os.PathLike[str] | CheckpointJournal | None,
) -> CheckpointJournal | None:
    if checkpoint is None or isinstance(checkpoint, CheckpointJournal):
        return checkpoint
    return CheckpointJournal(checkpoint)


@dataclass(frozen=True)
class ExperimentRun:
    """One executed experiment task.

    ``metrics`` is the task's own metrics delta — the registry snapshot
    collected around just this experiment call, whichever process ran it.
    """

    exp_id: str
    result: ExperimentResult
    duration: float
    seed: int | None = None
    replication: int | None = None
    metrics: dict[str, Any] | None = None


def _takes_seed(exp_id: str) -> bool:
    from repro.experiments import ALL_EXPERIMENTS

    return "seed" in inspect.signature(ALL_EXPERIMENTS[exp_id]).parameters


def _call_experiment(
    exp_id: str, seed: int | None, kwargs: Mapping[str, Any]
) -> tuple[ExperimentResult, float, dict[str, Any]]:
    """Worker entry point: run one experiment with task-derived options.

    ``seed`` is forwarded only to experiments whose signatures accept it;
    extra ``kwargs`` are passed verbatim (the caller owns their
    validity).  Module-level so it pickles into worker processes.

    The call runs inside :func:`~repro.obs.metrics.collecting`, so the
    returned snapshot is this task's metrics *delta* — pool workers are
    reused across tasks, and scoping per task is what keeps a worker's
    earlier tasks from being counted again.

    The task's ``solve_linear_cached`` activity is recorded into the
    delta as *counters* (``cache.solve_linear.task_hits`` /
    ``.task_misses``): each worker process has its own lru cache whose
    stats would otherwise die with the pool, but counters merge
    additively, so folding the per-task snapshots reconstructs the whole
    run's cache traffic no matter which process served it.
    """
    from repro.dlt.batch import linear_cache_info
    from repro.experiments import ALL_EXPERIMENTS

    fn = ALL_EXPERIMENTS[exp_id]
    call_kwargs = dict(kwargs)
    if seed is not None and _takes_seed(exp_id):
        call_kwargs.setdefault("seed", seed)
    cache_before = linear_cache_info()
    start = time.perf_counter()
    with collecting() as registry:
        # Per-experiment wall-clock attribution: ids like "T2.1" would
        # otherwise split into bogus tree levels at the dot.
        with perf_span("experiments." + exp_id.replace(".", "_")):
            result = fn(**call_kwargs)
        cache_after = linear_cache_info()
        if cache_after.hits > cache_before.hits:
            registry.inc(
                "cache.solve_linear.task_hits", cache_after.hits - cache_before.hits
            )
        if cache_after.misses > cache_before.misses:
            registry.inc(
                "cache.solve_linear.task_misses",
                cache_after.misses - cache_before.misses,
            )
        snapshot = registry.snapshot()
    return result, time.perf_counter() - start, snapshot


def _execute(
    tasks: list[tuple[str, int | None, dict[str, Any]]],
    jobs: int,
    *,
    journal: CheckpointJournal | None = None,
    replications: Sequence[int | None] | None = None,
):
    if journal is not None:
        return _execute_journaled(tasks, jobs, journal, replications)
    outcomes = map_ordered(_call_experiment, tasks, jobs)
    if jobs > 1 and len(tasks) > 1:
        # The tasks ran in pool workers, whose counts would otherwise die
        # with the pool.  In-process (map_ordered's path for one job or
        # one task), collecting() inside _call_experiment already merged
        # each delta, and merging again would count it twice.
        registry = get_registry()
        for _result, _duration, snapshot in outcomes:
            registry.merge(snapshot)
    return outcomes


def _execute_journaled(
    tasks: list[tuple[str, int | None, dict[str, Any]]],
    jobs: int,
    journal: CheckpointJournal,
    replications: Sequence[int | None] | None,
):
    """Checkpointed execution: journaled tasks restore, the rest run.

    Each finished task is appended to the journal *as it completes* (not
    in submission order), so a kill at any point loses at most the tasks
    still in flight.  Results are still assembled in submission order, and
    seeds derive from task identity, so a resumed run's output is
    byte-identical to an uninterrupted one.
    """
    reps = list(replications) if replications is not None else [None] * len(tasks)
    keys = [
        task_key(exp_id, seed, kwargs, rep)
        for (exp_id, seed, kwargs), rep in zip(tasks, reps)
    ]
    outcomes: list[Any] = [None] * len(tasks)
    restored: list[bool] = [False] * len(tasks)
    pending: list[int] = []
    for idx, key in enumerate(keys):
        cached = journal.get(key)
        if cached is not None:
            outcomes[idx] = cached
            restored[idx] = True
        else:
            pending.append(idx)

    def _journal(idx: int, outcome) -> None:
        outcomes[idx] = outcome
        journal.record(
            keys[idx],
            outcome,
            exp_id=tasks[idx][0],
            seed=tasks[idx][1],
            replication=reps[idx],
        )

    if jobs <= 1:
        for idx in pending:
            _journal(idx, _call_experiment(*tasks[idx]))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_call_experiment, *tasks[idx]): idx for idx in pending
            }
            for future in as_completed(futures):
                _journal(futures[future], future.result())

    # Merge metrics deltas the in-process path did not already absorb:
    # restored tasks always (their work happened in a previous run), and
    # fresh tasks when they ran in pool workers.
    registry = get_registry()
    for idx in range(len(tasks)):
        if restored[idx] or jobs > 1:
            registry.merge(outcomes[idx][2])
    return outcomes


def run_experiments(
    ids: Sequence[str] | None = None,
    *,
    jobs: int = 1,
    base_seed: int | None = None,
    experiment_kwargs: Mapping[str, Mapping[str, Any]] | None = None,
    checkpoint: str | os.PathLike[str] | CheckpointJournal | None = None,
) -> list[ExperimentRun]:
    """Run experiments (default: the whole registry) across ``jobs`` workers.

    Parameters
    ----------
    ids:
        Experiment ids from :data:`~repro.experiments.ALL_EXPERIMENTS`,
        run and returned in this order.  ``None`` runs the full registry.
    jobs:
        Worker processes; ``1`` runs in-process with no pool.
    base_seed:
        When given, each experiment that accepts a ``seed`` gets
        ``task_seed(exp_id, base_seed)``; when ``None`` (default) the
        experiments keep their own pinned default seeds.
    experiment_kwargs:
        Optional per-id keyword overrides, e.g. reduced workloads for
        smoke runs: ``{"T2.1": {"n_trials": 20}}``.
    checkpoint:
        Journal path (or a :class:`~repro.runtime.checkpoint.CheckpointJournal`)
        enabling checkpoint/resume: completed tasks restore from the
        journal instead of re-running, and each fresh completion is
        appended durably.  Results are identical to an uncheckpointed run.
    """
    from repro.experiments import ALL_EXPERIMENTS

    chosen = list(ids) if ids else list(ALL_EXPERIMENTS)
    unknown = [exp_id for exp_id in chosen if exp_id not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment ids {unknown}; choose from {list(ALL_EXPERIMENTS)}")
    overrides = experiment_kwargs or {}
    tasks = [
        (
            exp_id,
            task_seed(exp_id, base_seed) if base_seed is not None else None,
            dict(overrides.get(exp_id, {})),
        )
        for exp_id in chosen
    ]
    outcomes = _execute(tasks, jobs, journal=_as_journal(checkpoint))
    return [
        ExperimentRun(
            exp_id=task[0], result=result, duration=duration, seed=task[1], metrics=metrics
        )
        for task, (result, duration, metrics) in zip(tasks, outcomes)
    ]


def run_replications(
    exp_id: str,
    n: int,
    *,
    jobs: int = 1,
    base_seed: int = 0,
    checkpoint: str | os.PathLike[str] | CheckpointJournal | None = None,
    **kwargs: Any,
) -> list[ExperimentRun]:
    """Monte-Carlo replications of one experiment with per-replication seeds.

    Replication ``i`` always receives ``task_seed(f"{exp_id}/rep{i}",
    base_seed)`` — derived from its index, not from worker order — so the
    replication set is identical at any ``jobs`` count.  ``checkpoint``
    enables journal-based resume exactly as in :func:`run_experiments`.

    Raises :class:`ValueError` for an unknown id, for ``n < 1``, and for
    an experiment that takes no ``seed`` (its replications would all be
    the same run).
    """
    from repro.experiments import ALL_EXPERIMENTS

    if exp_id not in ALL_EXPERIMENTS:
        raise ValueError(f"unknown experiment id {exp_id!r}")
    if n < 1:
        raise ValueError(f"replications must be >= 1, got {n}")
    if not _takes_seed(exp_id):
        raise ValueError(
            f"experiment {exp_id!r} takes no seed, so its replications would be identical"
        )
    tasks = [
        (exp_id, task_seed(f"{exp_id}/rep{i}", base_seed), dict(kwargs))
        for i in range(n)
    ]
    outcomes = _execute(
        tasks, jobs, journal=_as_journal(checkpoint), replications=list(range(n))
    )
    return [
        ExperimentRun(
            exp_id=exp_id,
            result=result,
            duration=duration,
            seed=task[1],
            replication=i,
            metrics=metrics,
        )
        for i, (task, (result, duration, metrics)) in enumerate(zip(tasks, outcomes))
    ]


def format_runs(runs: Sequence[ExperimentRun]) -> str:
    """Render a run set as deterministic text (no timings — byte-identical
    for identical results, which is what the determinism tests compare)."""
    blocks = []
    for run in runs:
        label = ""
        if run.replication is not None:
            label = f"--- {run.exp_id}#{run.replication} (seed {run.seed}) ---\n"
        blocks.append(label + run.result.format())
    failed = [run.exp_id for run in runs if not run.result.passed]
    footer = f"{len(runs)} experiment runs, {len(failed)} failed"
    if failed:
        footer += f": {failed}"
    return "\n\n".join(blocks + [footer])
