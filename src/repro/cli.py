"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Print the Algorithm 1 schedule for a chain given ``--w`` and ``--z``.
``gantt``
    Render the Fig. 2 ASCII Gantt chart for a chain.
``mechanism``
    Run DLS-LBL over truthful agents (optionally with one deviant) and
    print the per-agent report.
``sweep``
    Utility-vs-bid sweep for one agent (the Theorem 5.3 curve).
``experiment``
    Run one experiment from the DESIGN.md index (or ``all``).
``experiments``
    Run the experiment suite through the parallel runner
    (``--jobs N`` worker processes, ``--batch`` vectorized solving,
    ``--bench`` to record speedups in ``BENCH_batch.json``,
    ``--checkpoint PATH`` to journal finished tasks so an interrupted
    run resumes with identical results).
``run``
    Population runs of the mechanism with structured tracing:
    ``python -m repro run --m 4 --count 10 --trace out.jsonl --metrics
    metrics.json``.  The trace is byte-identical at any ``--jobs``.
``trace``
    Work with recorded traces: ``python -m repro trace summarize
    out.jsonl [--metrics metrics.json]``.
``perf``
    Wall-clock performance workflow (see :mod:`repro.obs.perf` /
    :mod:`repro.obs.bench`): ``perf record`` runs the benchmark suite
    and appends a machine-fingerprinted row to ``BENCH_history.jsonl``,
    ``perf report`` renders the profiling span tree and p50/p95/p99
    latency tables from the recorded snapshot, and ``perf diff``
    exits nonzero when a gated bench row regressed vs. the best
    same-machine baseline.
``serve``
    Mechanism-as-a-service (see :mod:`repro.serve`): ``serve start``
    runs the TCP JSON-lines front-end whose dispatcher micro-batches
    concurrent requests into stacked batch-engine calls (bitwise-equal
    to solo scalar runs), ``serve load`` fires a deterministic mixed
    workload at a running service and verifies every response bitwise,
    and ``serve bench`` measures solo-scalar vs micro-batched RPS and
    latency percentiles per flush policy.
``faults``
    Declarative fault injection (see :mod:`repro.faults`):
    ``python -m repro faults list`` shows the scenario catalog,
    ``python -m repro faults run --scenario shed --seed 0 --jobs 2
    --trace out.jsonl`` runs one (deterministic at any ``--jobs``), and
    ``python -m repro faults fuzz --seed 7 --count 20`` checks random
    fault combinations with shrink-on-failure reporting.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _floats(text: str) -> list[float]:
    values = [float(x) for x in text.replace(",", " ").split()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DLS-LBL: strategyproof divisible-load scheduling on linear networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="optimal schedule for a chain (Algorithm 1)")
    solve.add_argument("--w", type=_floats, required=True, help="processing times w0..wm (comma or space separated)")
    solve.add_argument("--z", type=_floats, default=None, help="link times z1..zm")
    solve.add_argument("--root", type=int, default=0, help="origination index (interior roots use the star split)")

    gantt = sub.add_parser("gantt", help="render the Fig. 2 Gantt chart")
    gantt.add_argument("--w", type=_floats, required=True)
    gantt.add_argument("--z", type=_floats, default=None)
    gantt.add_argument("--width", type=int, default=72)

    mech = sub.add_parser("mechanism", help="run the DLS-LBL mechanism")
    mech.add_argument("--w", type=_floats, required=True, help="w0 (obedient root) then true rates of agents")
    mech.add_argument("--z", type=_floats, default=None)
    mech.add_argument("--audit-probability", type=float, default=0.25)
    mech.add_argument("--seed", type=int, default=0)
    mech.add_argument(
        "--deviant",
        default=None,
        metavar="INDEX:KIND[:PARAM]",
        help="inject a deviant, e.g. 2:shed:0.5, 3:overcharge:1.0, 2:misbid:1.5, "
        "2:slow:2.0, 2:contradict, 2:miscompute:0.8, 2:tamper:0.7, 3:accuse",
    )

    sweep = sub.add_parser("sweep", help="utility-vs-bid sweep (Theorem 5.3 curve)")
    sweep.add_argument("--w", type=_floats, required=True)
    sweep.add_argument("--z", type=_floats, default=None)
    sweep.add_argument("--agent", type=int, required=True, help="agent index 1..m")
    sweep.add_argument("--factors", type=_floats, default=[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])

    exp = sub.add_parser("experiment", help="run an experiment from the DESIGN.md index")
    exp.add_argument(
        "id",
        nargs="?",
        default=None,
        help="experiment id (e.g. F2, T5.3, X4, A1, P2) or 'all'; omit with --list to enumerate",
    )
    exp.add_argument("--list", action="store_true", help="list available experiments and exit")

    exps = sub.add_parser(
        "experiments",
        help="run the experiment suite via the parallel runner (see repro.experiments.runner)",
    )
    exps.add_argument(
        "ids", nargs="*", metavar="ID",
        help="experiment ids to run, in order (default: the whole registry)",
    )
    exps.add_argument("--jobs", type=int, default=1, help="worker processes (1 = in-process serial)")
    exps.add_argument(
        "--batch", action="store_true",
        help="use the vectorized batch solvers in experiments that support them",
    )
    exps.add_argument(
        "--seed", type=int, default=None,
        help="base seed; derives a deterministic per-experiment seed (default: each experiment's pinned seed)",
    )
    exps.add_argument(
        "--replications", type=int, default=None, metavar="N",
        help="run a single experiment N times with per-replication derived seeds",
    )
    exps.add_argument(
        "--bench", action="store_true",
        help="measure scalar-vs-batch and serial-vs-parallel speedups and write them to --bench-path",
    )
    exps.add_argument("--bench-path", default="BENCH_batch.json", help="output path for --bench")
    exps.add_argument(
        "--history", default="BENCH_history.jsonl", metavar="PATH",
        help="append a machine-fingerprinted trajectory row here on --bench ('' to skip)",
    )
    exps.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal completed tasks to PATH (JSONL); re-running with the same "
        "journal resumes, skipping finished tasks with identical results",
    )

    run = sub.add_parser(
        "run",
        help="population runs of the mechanism with structured tracing (see repro.mechanism.population)",
    )
    run.add_argument("--m", type=int, default=4, help="links per chain (m+1 processors)")
    run.add_argument("--count", type=int, default=10, help="number of mechanism runs")
    run.add_argument("--seed", type=int, default=0, help="base seed; run i uses task_seed('mech/i', seed)")
    run.add_argument("--jobs", type=int, default=1, help="worker processes (1 = in-process serial)")
    run.add_argument("--audit-probability", type=float, default=0.25)
    run.add_argument(
        "--deviant",
        default=None,
        metavar="INDEX:KIND[:PARAM]",
        help="inject the same deviant into every run, e.g. 2:shed:0.5",
    )
    run.add_argument(
        "--batch", action="store_true",
        help="run the population through the batched Phase I-IV engine "
        "(bitwise-equal results and trace bytes; untraced runs of every "
        "deviant kind stay stacked, traced runs execute on its masked "
        "lane path — no scalar fallback)",
    )
    run.add_argument("--trace", default=None, metavar="PATH", help="write the merged JSONL trace to PATH")
    run.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the merged metrics report (JSON) to PATH",
    )

    serve = sub.add_parser(
        "serve",
        help="mechanism-as-a-service with dynamic micro-batching (see repro.serve)",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    serve_start = serve_sub.add_parser(
        "start", help="run the asyncio TCP JSON-lines service until a shutdown op"
    )
    serve_start.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_start.add_argument(
        "--port", type=int, default=7341, help="bind port (0 = ephemeral)"
    )
    from repro.serve.dispatcher import FlushPolicy

    shipped = FlushPolicy()
    serve_start.add_argument(
        "--max-batch", type=int, default=shipped.max_batch,
        help="most requests in one flush (default %(default)s)",
    )
    serve_start.add_argument(
        "--max-wait-ms", type=float, default=shipped.max_wait_s * 1e3,
        help="opt-in straggler window: wait up to this many ms after a batch's "
        "first request for more (default %(default)g: flush the backlog at once)",
    )
    serve_start.add_argument(
        "--capacity", type=int, default=256,
        help="admission queue bound; overflow requests are rejected immediately",
    )
    serve_start.add_argument(
        "--tenant-capacity", type=int, default=None, metavar="N",
        help="per-tenant admission bound (default: same as --capacity)",
    )
    serve_start.add_argument(
        "--weight", action="append", default=None, metavar="TENANT=W",
        help="deficit-round-robin weight for a tenant (repeatable; default 1)",
    )
    serve_start.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes executing flush groups (0 = inline in the event loop)",
    )
    serve_start.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here once listening (for --port 0 scripting)",
    )
    serve_load = serve_sub.add_parser(
        "load", help="fire a deterministic mixed workload at a running service"
    )
    serve_load.add_argument("--host", default="127.0.0.1")
    serve_load.add_argument("--port", type=int, default=7341)
    serve_load.add_argument("--count", type=int, default=100, help="requests to send")
    serve_load.add_argument("--seed", type=int, default=0, help="workload seed")
    serve_load.add_argument(
        "--connections", type=int, default=4, help="concurrent pipelined connections"
    )
    serve_load.add_argument(
        "--sizes", type=_floats, default=[4, 6], help="network sizes cycled through the mix"
    )
    serve_load.add_argument(
        "--topologies", default="chain,star", metavar="LIST",
        help="comma-separated topologies cycled through the mix (chain, star, tree)",
    )
    serve_load.add_argument(
        "--tenants", default="default", metavar="LIST",
        help="comma-separated tenant names cycled through the mix",
    )
    serve_load.add_argument(
        "--priorities", default="0", metavar="LIST",
        help="comma-separated priorities cycled through the mix",
    )
    serve_load.add_argument(
        "--no-verify", action="store_true",
        help="skip the local bitwise check of every response vs the solo scalar recipe",
    )
    serve_load.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON latency/RPS report (the CI artifact) to PATH",
    )
    serve_load.add_argument(
        "--shutdown", action="store_true", help="send a shutdown op after the load"
    )
    serve_load.add_argument(
        "--connect-retries", type=int, default=3, metavar="N",
        help="connect attempts per connection (exponential backoff between them)",
    )
    serve_load.add_argument(
        "--connect-timeout", type=float, default=2.0, metavar="S",
        help="first connect attempt's deadline in seconds (doubles per retry)",
    )
    serve_load.add_argument(
        "--read-timeout", type=float, default=60.0, metavar="S",
        help="per-response read deadline in seconds",
    )
    serve_bench = serve_sub.add_parser(
        "bench", help="solo-scalar vs micro-batched dispatch bench (no sockets)"
    )
    serve_bench.add_argument("--count", type=int, default=200, help="requests per lane")
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument(
        "--pool-workers", default="1,2,4", metavar="LIST",
        help="comma-separated worker counts for the serve_pool sweep ('' to skip)",
    )
    serve_bench.add_argument(
        "--report", default=None, metavar="PATH", help="write the JSON section to PATH"
    )

    faults = sub.add_parser("faults", help="declarative fault injection (see repro.faults)")
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_list = faults_sub.add_parser("list", help="show the scenario catalog")
    faults_list.add_argument(
        "--kinds", action="store_true", help="list the injectable fault kinds instead"
    )
    faults_run = faults_sub.add_parser("run", help="run one scenario (or 'all')")
    faults_run.add_argument(
        "--scenario",
        required=True,
        help="catalog scenario name (see 'faults list'), or 'all' for the whole catalog",
    )
    faults_run.add_argument(
        "--spec", default=None, metavar="PATH",
        help="load the scenario from a JSON ScenarioSpec file instead of the catalog",
    )
    faults_run.add_argument("--seed", type=int, default=0, help="base seed for the derived per-run streams")
    faults_run.add_argument("--jobs", type=int, default=1, help="worker processes (1 = in-process serial)")
    faults_run.add_argument("--runs", type=int, default=None, help="override the scenario's run count")
    faults_run.add_argument("--trace", default=None, metavar="PATH", help="write the merged JSONL trace to PATH")
    faults_run.add_argument(
        "--batch", action="store_true",
        help="execute chain/star runs on the batch engine's lane mechanisms "
        "(bitwise-equal results; tree/infrastructure scenarios stay scalar "
        "and count mechanism.scalar_fallbacks)",
    )
    faults_run.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the merged metrics report (JSON) to PATH",
    )
    faults_fuzz = faults_sub.add_parser(
        "fuzz", help="random fault combinations gated by the verdict checker"
    )
    faults_fuzz.add_argument("--seed", type=int, default=0, help="fuzz batch seed")
    faults_fuzz.add_argument("--count", type=int, default=20, help="scenarios to generate")
    faults_fuzz.add_argument("--jobs", type=int, default=1, help="worker processes per scenario")
    faults_fuzz.add_argument("--m", type=int, default=4, help="links per chain (m+1 processors)")
    faults_fuzz.add_argument(
        "--max-faults", type=int, default=3, help="max faults per generated scenario"
    )
    faults_fuzz.add_argument("--runs", type=int, default=1, help="runs per generated scenario")
    faults_fuzz.add_argument(
        "--report", default=None, metavar="PATH", help="write the JSON fuzz report to PATH"
    )

    perf = sub.add_parser(
        "perf",
        help="wall-clock performance: record benchmarks, render span trees, gate regressions",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_record = perf_sub.add_parser(
        "record", help="run the benchmark suite and append a trajectory row"
    )
    perf_record.add_argument("--bench-path", default="BENCH_batch.json", help="full-record output path")
    perf_record.add_argument("--history", default="BENCH_history.jsonl", help="append-only trajectory path")
    perf_record.add_argument("--jobs", type=int, default=1, help="worker processes for the parallel sections")
    perf_report = perf_sub.add_parser(
        "report", help="span tree and latency percentiles from a bench record or metrics report"
    )
    perf_report.add_argument("--bench-path", default="BENCH_batch.json", help="bench record with an embedded perf snapshot")
    perf_report.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="read histograms from a metrics report (repro run --metrics) instead of the bench record",
    )
    perf_diff = perf_sub.add_parser(
        "diff", help="gate the newest trajectory row against the best same-machine baseline"
    )
    perf_diff.add_argument("--history", default="BENCH_history.jsonl", help="trajectory file (newest row is gated)")
    perf_diff.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="take baseline rows from this history file instead of earlier rows of --history",
    )
    perf_diff.add_argument(
        "--threshold", type=float, default=0.5,
        help="allowed slowdown fraction before failing (0.5 = 50%%, generous for wall-clock noise)",
    )

    trace = sub.add_parser("trace", help="work with recorded JSONL traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser("summarize", help="human-readable rollup of a trace file")
    summarize.add_argument("path", help="JSONL trace written by 'repro run --trace'")
    summarize.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="metrics report written by 'repro run --metrics'; adds wall-clock and cache sections",
    )

    return parser


def _network(args):
    from repro.network.topology import LinearNetwork

    w = args.w
    z = args.z if args.z is not None else [0.5] * (len(w) - 1)
    return LinearNetwork(w, z)


def _cmd_solve(args) -> int:
    import numpy as np

    net = _network(args)
    if getattr(args, "root", 0) != 0:
        from repro.dlt.linear_interior import solve_linear_interior

        sched = solve_linear_interior(net.w, net.z, args.root)
        print(f"interior origination at P{args.root}; arm order: {sched.order}")
        alpha = sched.alpha
        print("alpha:", np.array2string(alpha, precision=6))
        print(f"makespan: {sched.makespan:.6f}")
        return 0
    from repro.dlt.linear import solve_linear_boundary
    from repro.dlt.timing import finishing_times

    sched = solve_linear_boundary(net)
    print("alpha:     ", np.array2string(sched.alpha, precision=6))
    print("alpha_hat: ", np.array2string(sched.alpha_hat, precision=6))
    print("w_eq:      ", np.array2string(sched.w_eq, precision=6))
    print(f"makespan:   {sched.makespan:.6f}")
    times = finishing_times(net, sched.alpha)
    print(f"finish spread (Thm 2.1): {times.max() - times.min():.3e}")
    return 0


def _cmd_gantt(args) -> int:
    from repro.dlt.linear import solve_linear_boundary
    from repro.sim.linear_sim import simulate_linear_chain
    from repro.viz.gantt import render_gantt, render_schedule_table

    net = _network(args)
    sched = solve_linear_boundary(net)
    result = simulate_linear_chain(net, sched.alpha)
    print(render_gantt(result.trace, net.size, width=args.width))
    print()
    print(render_schedule_table(sched.alpha, result.finish_times, received=result.received))
    return 0


def _make_deviant(spec: str, true_rates: Sequence[float]):
    from repro.mechanism.population import make_deviant

    try:
        return make_deviant(spec, true_rates)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_mechanism(args) -> int:
    from repro.agents import TruthfulAgent
    from repro.mechanism.dls_lbl import DLSLBLMechanism

    w = args.w
    z = args.z if args.z is not None else [0.5] * (len(w) - 1)
    true_rates = w[1:]
    agents = [TruthfulAgent(i, float(t)) for i, t in enumerate(true_rates, start=1)]
    if args.deviant:
        deviant = _make_deviant(args.deviant, true_rates)
        agents[deviant.index - 1] = deviant
    mech = DLSLBLMechanism(
        z, float(w[0]), agents,
        audit_probability=args.audit_probability,
        rng=np.random.default_rng(args.seed),
    )
    outcome = mech.run()
    status = "completed" if outcome.completed else f"ABORTED in phase {outcome.aborted_phase}"
    print(f"run {status}; fine F = {mech.fine:.3f}")
    if outcome.makespan is not None:
        print(f"makespan: {outcome.makespan:.6f}")
    header = f"{'proc':>5} {'strategy':>18} {'bid':>8} {'assigned':>9} {'computed':>9} {'payment':>9} {'utility':>9}"
    print(header)
    for i, r in sorted(outcome.reports.items()):
        print(
            f"P{i:<4d} {r.strategy:>18} {r.bid:>8.3f} {r.assigned:>9.4f} "
            f"{r.computed:>9.4f} {r.payment_billed:>9.3f} {r.utility:>9.3f}"
        )
    for verdict in outcome.adjudications:
        outcome_word = "substantiated" if verdict.substantiated else "exculpated"
        print(
            f"grievance [{verdict.grievance.kind.value}] by P{verdict.grievance.accuser} "
            f"against P{verdict.grievance.accused}: {outcome_word}; "
            f"P{verdict.fined} fined {verdict.fine_amount:.3f}"
        )
    for audit in outcome.audits:
        if audit.fine > 0:
            print(f"audit: P{audit.proc} fined {audit.fine:.3f} ({audit.reason})")
    return 0


def _cmd_sweep(args) -> int:
    from repro.mechanism.properties import sweep_bids

    w = args.w
    z = args.z if args.z is not None else [0.5] * (len(w) - 1)
    report = sweep_bids(z, float(w[0]), w[1:], args.agent, factors=args.factors)
    print(f"agent P{args.agent}, true rate {report.true_rate:.4f}")
    print(f"{'bid':>10} {'utility':>12} {'vs truth':>12}")
    for bid, utility in zip(report.bids, report.utilities):
        mark = "  <-- truth" if np.isclose(bid, report.true_rate) else ""
        print(f"{bid:>10.4f} {utility:>12.6f} {utility - report.truthful_utility:>12.3e}{mark}")
    print(f"strategyproof: {report.truthful_is_optimal}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS

    if args.list:
        import sys as _sys

        for exp_id, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip()
            if not doc:
                module = _sys.modules.get(fn.__module__)
                doc = (module.__doc__ or "").strip() if module else ""
            summary = doc.splitlines()[0] if doc else fn.__name__
            print(f"{exp_id:>5}  {summary}")
        return 0
    if args.id is None:
        raise SystemExit("provide an experiment id or --list")
    if args.id == "all":
        ids = list(ALL_EXPERIMENTS)
    elif args.id in ALL_EXPERIMENTS:
        ids = [args.id]
    else:
        raise SystemExit(
            f"unknown experiment {args.id!r}; choose from {list(ALL_EXPERIMENTS)} or 'all'"
        )
    failed = []
    for exp_id in ids:
        result = ALL_EXPERIMENTS[exp_id]()
        print(result.format())
        print()
        if not result.passed:
            failed.append(exp_id)
    if failed:
        print(f"FAILED: {failed}")
        return 1
    return 0


def _print_serve_summary(section) -> None:
    solo = section["solo"]
    print(
        f"serve: {section['count']} mixed requests "
        f"({'/'.join(section['topologies'])}, m in {section['sizes']}); "
        f"solo scalar {solo['rps']:.0f} req/s "
        f"(p50 {solo['p50_ms']:.2f}ms p95 {solo['p95_ms']:.2f}ms p99 {solo['p99_ms']:.2f}ms)"
    )
    for row in section["policies"]:
        note = "" if row["bitwise_equal"] else " [BITWISE MISMATCH — timing untrusted]"
        print(
            f"  {row['policy']:>14}: {row['rps']:.0f} req/s "
            f"(p50 {row['p50_ms']:.2f}ms p95 {row['p95_ms']:.2f}ms "
            f"p99 {row['p99_ms']:.2f}ms, mean batch {row['mean_batch_size']:.1f}, "
            f"{row['flushes']} flushes p50 {row['flush_p50_ms']:.2f}ms)"
            f"{note}"
        )
    print(f"  bitwise equal across all policies: {section['bitwise_equal']}")
    pool = section.get("serve_pool")
    if pool:
        pool_solo = pool["solo"]
        print(
            f"serve_pool: {pool['count']} mixed requests "
            f"({'/'.join(pool['topologies'])}, policy {pool['policy']}); "
            f"solo scalar {pool_solo['rps']:.0f} req/s"
        )
        for row in pool["workers"]:
            note = "" if row["bitwise_equal"] else " [BITWISE MISMATCH — timing untrusted]"
            print(
                f"  workers={row['workers']}: {row['rps']:.0f} req/s "
                f"(p50 {row['p50_ms']:.2f}ms p95 {row['p95_ms']:.2f}ms "
                f"p99 {row['p99_ms']:.2f}ms)"
                f"{note}"
            )
        print(f"  bitwise equal across all worker counts: {pool['bitwise_equal']}")


def _print_bench_summary(record, bench_path, history_path) -> None:
    solve = record["batch_solve"]
    par = record["parallel_runner"]
    print(
        f"batch solve: {solve['n_networks']} x {solve['m'] + 1}-processor chains, "
        f"{solve['scalar_loop_s']:.4f}s scalar vs {solve['batch_s']:.4f}s batched "
        f"({solve['speedup']:.1f}x)"
    )
    par_note = "" if par.get("valid", True) else f" [INVALID: {par.get('invalid_reason')}]"
    print(
        f"parallel runner ({record['machine']['cpu_count']} cpus): "
        f"{par['serial_s']:.3f}s serial vs {par['parallel_s']:.3f}s with "
        f"--jobs {par['jobs']} ({par['speedup']:.2f}x){par_note}"
    )
    mech = record["mech_batch"]
    print(
        f"mechanism runs: {mech['count']} x m={mech['m']} chains, "
        f"{mech['scalar_s']:.3f}s scalar vs {mech['batch_s']:.3f}s batched "
        f"({mech['speedup']:.1f}x, bitwise equal: {mech['bitwise_equal']})"
    )
    mix = mech["deviant_mix"]
    print(
        f"deviant mix ({mix['deviant_fraction']:.0%} deviant lanes): "
        f"{mix['scalar_s']:.3f}s scalar vs {mix['batch_s']:.3f}s batched "
        f"({mix['speedup']:.1f}x, bitwise equal: {mix['bitwise_equal']})"
    )
    serve = record.get("serve")
    if serve:
        _print_serve_summary(serve)
    rt = record.get("runtime")
    if rt:
        print(
            f"resilient runtime: m={rt['m']} with {rt['faults']} faults in "
            f"{rt['wall_s']:.3f}s ({rt['crashes']} crash(es), {rt['retries']} retries)"
        )
    byz = record.get("byzantine_mix")
    if byz:
        print(
            f"byzantine mix: m={byz['m']} with {byz['faults']} faults in "
            f"{byz['wall_s']:.3f}s ({byz['overhead_vs_runtime']:.2f}x infra-only run; "
            f"liars fined: {byz['liars_fined']}, ledger balanced: {byz['ledger_balanced']})"
        )
    print(
        f"machine fingerprint {record['machine']['fingerprint']}; "
        f"record written to {bench_path}"
    )
    if history_path:
        print(f"trajectory row appended to {history_path}")


def _cmd_experiments(args) -> int:
    from repro.experiments.runner import (
        format_runs,
        run_experiments,
        run_replications,
        write_benchmark,
    )

    if args.bench:
        jobs = args.jobs if args.jobs > 1 else 4
        history = getattr(args, "history", "BENCH_history.jsonl") or None
        record = write_benchmark(args.bench_path, jobs=jobs, history_path=history)
        _print_bench_summary(record, args.bench_path, history)
        return 0
    try:
        if args.replications is not None:
            if len(args.ids) != 1:
                raise SystemExit("--replications requires exactly one experiment id")
            runs = run_replications(
                args.ids[0],
                args.replications,
                jobs=args.jobs,
                base_seed=args.seed if args.seed is not None else 0,
                use_batch=args.batch,
                checkpoint=args.checkpoint,
            )
        else:
            runs = run_experiments(
                args.ids or None,
                jobs=args.jobs,
                use_batch=args.batch,
                base_seed=args.seed,
                checkpoint=args.checkpoint,
            )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(format_runs(runs))
    total = sum(run.duration for run in runs)
    print(f"(total task time {total:.2f}s across {args.jobs} job(s))")
    return 0 if all(run.result.passed for run in runs) else 1


def _cmd_run(args) -> int:
    from repro.mechanism.population import run_population
    from repro.obs.report import write_metrics_report
    from repro.obs.tracer import write_trace

    try:
        result = run_population(
            args.m,
            args.count,
            seed=args.seed,
            jobs=args.jobs,
            audit_probability=args.audit_probability,
            deviant=args.deviant,
            trace=args.trace is not None,
            use_batch=args.batch,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    completed = sum(1 for r in result.runs if r["completed"])
    print(
        f"{len(result.runs)} runs on {args.m + 1}-processor chains "
        f"(seed {args.seed}, jobs {args.jobs}): {completed} completed, "
        f"{len(result.runs) - completed} aborted"
    )
    header = f"{'run':>4} {'seed':>11} {'status':>10} {'makespan':>9} {'fines':>9} {'griev':>6} {'audits':>7}"
    print(header)
    for r in result.runs:
        status = "ok" if r["completed"] else f"abort P{r['aborted_phase']}"
        makespan = f"{r['makespan']:.4f}" if r["makespan"] is not None else "-"
        print(
            f"{r['index']:>4} {r['seed']:>11} {status:>10} {makespan:>9} "
            f"{r['fines_total']:>9.3f} {r['n_grievances']:>6} {r['n_audits']:>7}"
        )
    if args.trace:
        write_trace(args.trace, result.events)
        print(f"trace: {len(result.events)} events -> {args.trace}")
    if args.metrics:
        write_metrics_report(args.metrics, result.metrics)
        print(f"metrics -> {args.metrics}")
    return 0


def _cmd_faults(args) -> int:
    from repro.faults import BUILTIN_SCENARIOS, FAULT_KINDS, ScenarioSpec, run_scenario

    if args.faults_command == "list":
        if args.kinds:
            print(f"{'kind':>14} {'expected':>9} {'theorem':>28}  description")
            for kind in FAULT_KINDS.values():
                print(f"{kind.name:>14} {kind.expected:>9} {kind.theorem:>28}  {kind.description}")
            return 0
        print(f"{'scenario':>22} {'faults':>6} {'runs':>5}  description")
        for spec in BUILTIN_SCENARIOS.values():
            print(f"{spec.name:>22} {len(spec.faults):>6} {spec.runs:>5}  {spec.description}")
        return 0

    if args.faults_command == "fuzz":
        from repro.faults.fuzz import fuzz_scenarios

        report = fuzz_scenarios(
            args.seed,
            args.count,
            jobs=args.jobs,
            m=args.m,
            max_faults=args.max_faults,
            runs=args.runs,
        )
        print(report.format())
        if args.report:
            import json

            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "seed": report.seed,
                        "count": report.count,
                        "cases": report.cases,
                        "failures": report.failures,
                    },
                    fh,
                    indent=2,
                    sort_keys=True,
                )
                fh.write("\n")
            print(f"report -> {args.report}")
        return 0 if report.all_ok else 1

    if args.spec is not None:
        with open(args.spec, encoding="utf-8") as fh:
            scenarios = [ScenarioSpec.from_json(fh.read())]
    elif args.scenario == "all":
        scenarios = list(BUILTIN_SCENARIOS.values())
    elif args.scenario in BUILTIN_SCENARIOS:
        scenarios = [BUILTIN_SCENARIOS[args.scenario]]
    else:
        raise SystemExit(
            f"unknown scenario {args.scenario!r}; choose from {sorted(BUILTIN_SCENARIOS)} or 'all'"
        )

    all_events = []
    all_metrics = []
    exit_code = 0
    for scenario in scenarios:
        try:
            result = run_scenario(
                scenario,
                seed=args.seed,
                jobs=args.jobs,
                runs=args.runs,
                trace=args.trace is not None,
                use_batch=args.batch,
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        all_events.append(result.events)
        all_metrics.append(result.metrics)
        print(
            f"scenario {scenario.name!r} (m={scenario.m}, q={scenario.audit_probability:g}, "
            f"seed {args.seed}, jobs {args.jobs}): "
            f"{'OK' if result.all_ok else 'VIOLATION'}"
        )
        header = f"{'run':>4} {'status':>9} {'faults':>26} {'detected':>9} {'gain':>12} {'verdict':>8}"
        print(header)
        for r in result.runs:
            status = "ok" if r["completed"] else f"abort P{r['aborted_phase']}"
            faults_desc = (
                ",".join(f"{f['kind']}@P{f['target']}" for f in r["active"]) or "-"
            )
            if "deviators" in r:
                detected = (
                    "/".join("yes" if d["detected"] else "no" for d in r["deviators"]) or "-"
                )
                gain = f"{r['joint_gain']:>12.4e}"
            else:
                # Infrastructure run: runtime verdicts instead of deviator
                # detection, makespan penalty instead of strategic gain.
                detected = "/".join(v["verdict"] for v in r["verdicts"]) or "-"
                gain = f"{r['makespan_penalty']:>12.4e}"
            print(
                f"{r['run']:>4} {status:>9} {faults_desc:>26} {detected:>9} "
                f"{gain} {'OK' if r['ok'] else 'FAIL':>8}"
            )
        if not result.all_ok:
            exit_code = 1
    if args.trace:
        from repro.obs.tracer import merge_traces, write_trace

        merged = merge_traces(all_events)
        write_trace(args.trace, merged)
        print(f"trace: {len(merged)} events -> {args.trace}")
    if args.metrics:
        from repro.obs.metrics import merge_snapshots
        from repro.obs.report import write_metrics_report

        write_metrics_report(args.metrics, merge_snapshots(all_metrics))
        print(f"metrics -> {args.metrics}")
    return exit_code


def _cmd_serve(args) -> int:
    import asyncio
    import json

    if args.serve_command == "start":
        from repro.serve import FlushPolicy, MechanismService

        weights = {}
        for item in args.weight or ():
            name, _, value = item.partition("=")
            try:
                weights[name] = float(value)
            except ValueError:
                print(f"bad --weight {item!r}: expected TENANT=NUMBER")
                return 2
        try:
            policy = FlushPolicy(max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1e3)
        except ValueError as exc:
            print(f"bad flush policy: {exc}")
            return 2
        try:
            service = MechanismService(
                args.host,
                args.port,
                policy=policy,
                capacity=args.capacity,
                tenant_capacity=args.tenant_capacity,
                weights=weights or None,
                workers=args.workers,
            )
        except ValueError as exc:
            print(f"bad serve configuration: {exc}")
            return 2

        async def _serve() -> None:
            await service.start()
            if args.port_file:
                with open(args.port_file, "w", encoding="utf-8") as fh:
                    fh.write(f"{service.port}\n")
            print(
                f"serving on {service.host}:{service.port} "
                f"(policy {service.dispatcher.policy.label}, "
                f"capacity {service.queue.capacity}, "
                f"workers {args.workers or 'inline'}); "
                'send {"op": "shutdown"} to stop',
                flush=True,
            )
            await service.serve_until_stopped()
            stats = service.stats()
            served = stats["counters"].get("serve.requests", 0)
            print(f"drained and stopped after {served:g} request(s)")

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            pass
        return 0

    if args.serve_command == "load":
        from repro.runtime.retry import RetryPolicy
        from repro.serve.client import mixed_workload, run_load, shutdown_server

        sizes = [int(x) for x in args.sizes]
        topologies = tuple(t.strip() for t in args.topologies.split(",") if t.strip())
        tenants = tuple(t.strip() for t in args.tenants.split(",") if t.strip())
        priorities = tuple(
            int(p) for p in args.priorities.split(",") if p.strip()
        )
        requests = mixed_workload(
            args.count,
            seed=args.seed,
            sizes=sizes,
            topologies=topologies or ("chain", "star"),
            tenants=tenants or ("default",),
            priorities=priorities or (0,),
        )
        policy = RetryPolicy(
            max_attempts=max(1, args.connect_retries),
            base_timeout=args.connect_timeout,
            max_timeout=max(args.connect_timeout * 4, args.connect_timeout),
        )

        async def _load():
            report = await run_load(
                args.host,
                args.port,
                requests,
                connections=args.connections,
                verify=not args.no_verify,
                policy=policy,
                read_timeout=args.read_timeout,
            )
            if args.shutdown:
                await shutdown_server(args.host, args.port, policy=policy)
            return report

        report = asyncio.run(_load())
        lat = report["latency_ms"]
        print(
            f"{report['ok']}/{report['requests']} ok over "
            f"{report['connections']} connection(s) in {report['elapsed_s']:.3f}s "
            f"({report['rps']:.0f} req/s); latency p50 {lat['p50']:.2f}ms "
            f"p95 {lat['p95']:.2f}ms p99 {lat['p99']:.2f}ms; "
            f"served {report['served_engines']} "
            f"(mean batch {report['mean_batch_size']:.1f})"
        )
        if len(report.get("tenants_ok", {})) > 1:
            print(f"per-tenant ok: {report['tenants_ok']}")
        if "bitwise_equal" in report:
            print(f"bitwise equal to solo scalar runs: {report['bitwise_equal']}")
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"report -> {args.report}")
        if report["errors"] or not report.get("bitwise_equal", True):
            return 1
        return 0

    # serve bench
    from repro.serve.bench import benchmark_serve

    pool_workers = tuple(
        int(w) for w in args.pool_workers.split(",") if w.strip()
    )
    section = benchmark_serve(
        count=args.count, seed=args.seed, pool_workers=pool_workers
    )
    _print_serve_summary(section)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(section, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report -> {args.report}")
    pool_equal = section.get("serve_pool", {}).get("bitwise_equal", True)
    return 0 if section["bitwise_equal"] and pool_equal else 1


def _cmd_perf(args) -> int:
    import json

    if args.perf_command == "record":
        from repro.experiments.runner import write_benchmark

        jobs = args.jobs if args.jobs > 1 else 4
        history = args.history or None
        record = write_benchmark(args.bench_path, jobs=jobs, history_path=history)
        _print_bench_summary(record, args.bench_path, history)
        return 0

    if args.perf_command == "report":
        from repro.obs.perf import format_latency_table, format_span_tree

        if args.metrics:
            with open(args.metrics, encoding="utf-8") as fh:
                histograms = json.load(fh).get("histograms", {})
            source = args.metrics
        else:
            try:
                with open(args.bench_path, encoding="utf-8") as fh:
                    record = json.load(fh)
            except FileNotFoundError:
                print(
                    f"{args.bench_path} not found; run `python -m repro perf record` "
                    "(or `experiments --bench`) first",
                    file=sys.stderr,
                )
                return 2
            perf = record.get("perf")
            if not perf:
                print(
                    f"{args.bench_path} has no embedded perf snapshot (pre-profiling "
                    "record); re-run `python -m repro perf record`",
                    file=sys.stderr,
                )
                return 2
            histograms = perf.get("histograms", {})
            source = args.bench_path
            machine = record.get("machine", {})
            print(
                f"perf report from {source} "
                f"(fingerprint {machine.get('fingerprint', '?')}, "
                f"{machine.get('cpu_count', '?')} cpus)"
            )
        print()
        print("== span tree (cumulative / self wall-clock seconds) ==")
        print(format_span_tree(histograms))
        print()
        print("== latency percentiles ==")
        print(format_latency_table(histograms))
        return 0

    # perf diff
    from repro.obs.bench import diff_history, format_diff, read_history

    rows = read_history(args.history)
    if not rows:
        # A fresh clone has no trajectory yet: the row the CI bench step
        # just appended (or will append) IS the baseline.  Skipping
        # cleanly lets the gate arm itself on the next same-machine run.
        print(
            f"no trajectory rows in {args.history}; baseline not yet seeded — "
            "gate skipped (the next bench run on this machine records it)"
        )
        return 0
    baseline_rows = read_history(args.baseline) if args.baseline else None
    result = diff_history(rows, threshold=args.threshold, baseline_rows=baseline_rows)
    print(format_diff(result))
    if result["status"] == "regression":
        return 1
    if result["status"] == "no-data":
        print(
            "no same-fingerprint/workload baseline for the newest row; "
            "gate skipped — this row seeds the baseline for future runs"
        )
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs.summary import summarize_trace
    from repro.obs.tracer import read_trace

    events = read_trace(args.path)
    metrics = None
    if args.metrics:
        with open(args.metrics, encoding="utf-8") as fh:
            metrics = json.load(fh)
    print(summarize_trace(events, metrics=metrics))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "gantt": _cmd_gantt,
    "mechanism": _cmd_mechanism,
    "sweep": _cmd_sweep,
    "experiment": _cmd_experiment,
    "experiments": _cmd_experiments,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "perf": _cmd_perf,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
