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
replication index order), regardless of completion order.

:func:`benchmark_batch` measures the speedups the batch layer exists
for — vectorized batch solving vs. looped scalar solving and the batched
Phase I–IV mechanism engine vs. scalar protocol runs — and
:func:`write_benchmark` records them in ``BENCH_batch.json`` (the
``python -m repro perf record`` entry point) so future changes have a
performance trajectory to compare against.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.experiments.harness import ExperimentResult, best_of
from repro.obs.bench import annotate_sections, append_history, history_row
from repro.obs.metrics import collecting, get_registry
from repro.obs.perf import span as perf_span
from repro.obs.report import machine_info
from repro.runtime.checkpoint import CheckpointJournal, task_key
from repro.seeding import task_seed

__all__ = [
    "ExperimentRun",
    "task_seed",
    "run_experiments",
    "run_replications",
    "format_runs",
    "timing_report",
    "benchmark_batch",
    "write_benchmark",
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
    if journal is None:
        if jobs <= 1:
            # In-process: collecting() inside _call_experiment already merged
            # each task's delta into this process's registry.
            return [_call_experiment(*task) for task in tasks]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_call_experiment, *task) for task in tasks]
            # Collected in submission order — worker scheduling cannot reorder
            # or reseed anything.
            outcomes = [future.result() for future in futures]
        # Worker-side counts would otherwise die with the pool; merging the
        # per-task snapshots here is what closes the old blind spot where
        # e.g. crypto counters ignored everything run under --jobs > 1.
        registry = get_registry()
        for _result, _duration, snapshot in outcomes:
            registry.merge(snapshot)
        return outcomes
    return _execute_journaled(tasks, jobs, journal, replications)


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


def timing_report(
    runs: Sequence[ExperimentRun], *, jobs: int = 1, wall_s: float | None = None
) -> dict[str, Any]:
    """Per-task timings and worker utilization for a completed run set.

    ``busy_s`` is the summed task time; with ``wall_s`` (the caller's
    measured wall clock for the whole set) the report also includes
    ``worker_utilization = busy_s / (jobs * wall_s)`` — how much of the
    pool's capacity the tasks actually filled.  The shape matches the
    ``BENCH_*.json`` records so it can be dropped into a benchmark file.
    """
    tasks = []
    for run in runs:
        label = run.exp_id if run.replication is None else f"{run.exp_id}#{run.replication}"
        tasks.append({"task": label, "duration_s": run.duration, "seed": run.seed})
    busy = float(sum(run.duration for run in runs))
    report: dict[str, Any] = {
        "jobs": jobs,
        "n_tasks": len(tasks),
        "busy_s": busy,
        "max_task_s": max((t["duration_s"] for t in tasks), default=0.0),
        "tasks": tasks,
    }
    if wall_s is not None and wall_s > 0:
        report["wall_s"] = wall_s
        report["worker_utilization"] = busy / (jobs * wall_s)
    return report


def benchmark_batch(
    *,
    n_networks: int = 1000,
    m: int = 10,
    seed: int = 7,
    mech_m: int = 8,
    mech_count: int = 300,
) -> dict[str, Any]:
    """Measure the batch layer's speedups and return the record.

    1. *Batch solving* (``batch_solve``): ``n_networks`` random
       ``(m+1)``-processor chains solved by a scalar
       :func:`~repro.dlt.linear.solve_linear_boundary` loop vs. one
       :func:`~repro.dlt.batch.solve_linear_batch` call (timed both
       pre-stacked and end-to-end including stacking).
    2. *Solve cache* (``solve_cache``): the same networks replayed
       through ``solve_linear_cached`` cold, then warm.
    3. *Batched mechanism runs* (``mech_batch``): a T5.3-sized
       Monte Carlo population of ``mech_count`` chains through scalar
       ``DLSLBLMechanism.run`` loops vs. one batched Phase I–IV engine
       pass, with the bitwise-equality of the two run sets recorded
       alongside the timings.  Its ``deviant_mix`` row repeats the
       comparison with 30% deviant runs rotating the full catalog, so
       the masked verdict columns' overhead is measured, not assumed; both
       rows record ``bitwise_equal`` and timings are only meaningful
       when it is true.
    4. *Resilient runtime* (``runtime``, ``byzantine_mix``): one small
       lossy session with a crash, then the same chain under a
       Byzantine storm.

    Kernel timings are best-of-3 wall clock; the mechanism sets and
    the runtime sessions run once.  The service's speed is measured by
    ``perfbench/`` over real loopback TCP, not here.
    """
    import numpy as np

    from repro.dlt.batch import (
        linear_cache_clear,
        linear_cache_info,
        record_cache_metrics,
        solve_linear_batch,
        solve_linear_cached,
        stack_networks,
    )
    from repro.dlt.linear import solve_linear_boundary
    from repro.mechanism.population import _DEVIANT_KINDS, run_population
    from repro.network.generators import random_linear_network
    from repro.runtime.session import run_resilient

    # Everything below runs inside one collecting() scope so the bench's
    # own perf spans and latency histograms (mechanism phases, solve
    # kernels, runtime) end up in one snapshot, embedded in the record
    # for `python -m repro perf report`.
    with collecting() as bench_registry:
        rng = np.random.default_rng(seed)
        networks = [random_linear_network(m, rng) for _ in range(n_networks)]
        scalar_s = best_of(lambda: [solve_linear_boundary(net) for net in networks], repeats=3)
        w, z = stack_networks(networks)
        batch_s = best_of(lambda: solve_linear_batch(w, z), repeats=3)
        batch_total_s = best_of(lambda: solve_linear_batch(*stack_networks(networks)), repeats=3)

        # Cache behaviour on a replay workload: a cold pass misses every
        # instance, a second pass over the same networks hits every one.
        linear_cache_clear()
        cold_start = time.perf_counter()
        for net in networks:
            solve_linear_cached(net)
        cold_s = time.perf_counter() - cold_start
        warm_start = time.perf_counter()
        for net in networks:
            solve_linear_cached(net)
        warm_s = time.perf_counter() - warm_start
        cache = linear_cache_info()
        record_cache_metrics()

        # Scalar-vs-batch mechanism runs: the same population both ways,
        # checked for bitwise-equal summaries before the timings are trusted.
        start = time.perf_counter()
        mech_scalar = run_population(mech_m, mech_count, seed=seed)
        mech_scalar_s = time.perf_counter() - start
        start = time.perf_counter()
        mech_batched = run_population(mech_m, mech_count, seed=seed, use_batch=True)
        mech_batch_s = time.perf_counter() - start
        mech_equal = mech_scalar.runs == mech_batched.runs

        # The same contract under adversaries: 30% of runs deviate, rotating
        # the full catalog (every kind rides the stacked arrays; contradict
        # settles from the draw, the rest through masked verdict columns).
        deviant_specs: list[str | None] = [
            f"{1 + (i % (mech_m - 1))}:{_DEVIANT_KINDS[i % len(_DEVIANT_KINDS)]}"
            if i % 10 < 3
            else None
            for i in range(mech_count)
        ]
        deviant_fraction = sum(s is not None for s in deviant_specs) / mech_count
        start = time.perf_counter()
        mix_scalar = run_population(mech_m, mech_count, seed=seed, deviants=deviant_specs)
        mix_scalar_s = time.perf_counter() - start
        start = time.perf_counter()
        mix_batched = run_population(
            mech_m, mech_count, seed=seed, deviants=deviant_specs, use_batch=True
        )
        mix_batch_s = time.perf_counter() - start
        mix_equal = mix_scalar.runs == mix_batched.runs

        # A small resilient session (lossy transport, one crash) so the
        # runtime.setup/epoch/settlement spans and the retry/delivery
        # latency histograms show up in the embedded perf snapshot.
        rt_w = [1.0 + 0.1 * i for i in range(6)]
        rt_z = [0.2] * 5
        rt_faults = [
            {"kind": "net_drop", "target": 2, "param": 2},
            {"kind": "crash_exec", "target": 3, "param": 0.5},
        ]
        rt_start = time.perf_counter()
        rt_outcome = run_resilient(rt_w, rt_z, rt_faults, seed=seed)
        runtime_s = time.perf_counter() - rt_start

        # The same chain under a Byzantine storm composed with a crash:
        # the adjudication overhead (contradiction proofs, forgery
        # attribution, meter audits) is timed against the infra-only run
        # above, and the ledger must still balance with every liar fined.
        byz_faults = [
            {"kind": "byz_equivocate", "target": 2, "param": 1.5},
            {"kind": "byz_meter", "target": 4, "param": 2.0},
            {"kind": "byz_suppress", "target": 1, "param": 2},
            {"kind": "crash_exec", "target": 3, "param": 0.5},
        ]
        byz_start = time.perf_counter()
        byz_outcome = run_resilient(rt_w, rt_z, byz_faults, seed=seed)
        byz_s = time.perf_counter() - byz_start
        perf_snapshot = bench_registry.snapshot()

    record = {
        "machine": machine_info(),
        "batch_solve": {
            "n_networks": n_networks,
            "m": m,
            "scalar_loop_s": scalar_s,
            "batch_s": batch_s,
            "batch_with_stacking_s": batch_total_s,
            "speedup": scalar_s / batch_s if batch_s > 0 else float("inf"),
            "speedup_with_stacking": scalar_s / batch_total_s if batch_total_s > 0 else float("inf"),
        },
        "solve_cache": {
            "n_networks": n_networks,
            "cold_pass_s": cold_s,
            "warm_pass_s": warm_s,
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": cache.hits / (cache.hits + cache.misses)
            if (cache.hits + cache.misses)
            else 0.0,
            "size": cache.currsize,
            "maxsize": cache.maxsize,
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        },
        "mech_batch": {
            "m": mech_m,
            "count": mech_count,
            "scalar_s": mech_scalar_s,
            "batch_s": mech_batch_s,
            "speedup": mech_scalar_s / mech_batch_s if mech_batch_s > 0 else float("inf"),
            "bitwise_equal": bool(mech_equal),
            "deviant_mix": {
                "m": mech_m,
                "count": mech_count,
                "deviant_fraction": deviant_fraction,
                "scalar_s": mix_scalar_s,
                "batch_s": mix_batch_s,
                "speedup": mix_scalar_s / mix_batch_s if mix_batch_s > 0 else float("inf"),
                "bitwise_equal": bool(mix_equal),
            },
        },
        "runtime": {
            "m": len(rt_z),
            "faults": len(rt_faults),
            "wall_s": runtime_s,
            "completed": bool(rt_outcome.completed),
            "crashes": rt_outcome.crashes,
            "retries": rt_outcome.retries,
        },
        "byzantine_mix": {
            "m": len(rt_z),
            "faults": len(byz_faults),
            "wall_s": byz_s,
            "overhead_vs_runtime": byz_s / runtime_s if runtime_s > 0 else float("inf"),
            "completed": bool(byz_outcome.completed),
            "liars": list(byz_outcome.liars),
            "excluded": list(byz_outcome.excluded),
            "liars_fined": bool(
                all(byz_outcome.fines.get(i, 0.0) > 0 for i in byz_outcome.liars)
            ),
            "ledger_balanced": bool(
                abs(byz_outcome.ledger.total_balance()) <= 1e-6
            ),
        },
        "perf": perf_snapshot,
    }
    return annotate_sections(record)


def write_benchmark(
    path: str | os.PathLike[str] = "BENCH_batch.json",
    *,
    history_path: str | os.PathLike[str] | None = "BENCH_history.jsonl",
    **kwargs: Any,
) -> dict[str, Any]:
    """Run :func:`benchmark_batch`, write ``path``, append the trajectory.

    ``BENCH_batch.json`` stays a full overwritten snapshot; the
    machine-fingerprinted gist of every run is *appended* to
    ``history_path`` (``BENCH_history.jsonl``) so ``python -m repro perf
    diff`` has a trajectory to gate against.  Pass ``history_path=None``
    to skip the append (throwaway bench runs in tests).
    """
    record = benchmark_batch(**kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if history_path is not None:
        append_history(history_path, history_row(record))
    return record
