"""Repository benchmark: one workload per invocation, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_loopback --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's own
profiling off (``REPRO_PERF=0``); ``--trace 1`` turns it on and reports
the per-layer breakdown instead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a detail record (sample counts, failure accounting, machine stamp).  The
exit code is 0 only when every output passed its bitwise check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: The first two are in BENCHMARK.json; the separate-process serve
#: workloads stay runnable but are not steady on a 2-vCPU machine.
WORKLOADS = ("serve_loopback", "population", "serve_chain_star", "serve_tree_pool")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args: argparse.Namespace) -> dict:
    if args.workload == "population":
        if args.trace:
            from population_trace import run_population_trace as runner
        else:
            from population_e2e import run_population_e2e as runner
        return runner(args.seed, args.seconds)
    from streams import SERVE_WORKLOADS

    workload = SERVE_WORKLOADS[args.workload]
    if args.trace:
        from serve_trace import run_serve_trace as runner
    else:
        from serve_e2e import run_serve_e2e as runner
    return runner(workload, args.seed, args.seconds)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    # Profiling is read once, when repro.obs.perf is first imported.
    os.environ["REPRO_PERF"] = "1" if args.trace else "0"
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    from benchlib import machine_stamp, stop_children

    try:
        outcome = _run(args)
    finally:
        stray = stop_children()

    correct = outcome["failed"] == 0 and outcome["valid"]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **machine_stamp()}
    detail["stray_children_stopped"] = stray
    detail.update(outcome["detail"])
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    result = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
