"""Experiment X2 (extension) — architecture comparison on identical
resources.

Takes the same processor and link pools and arranges them as: the paper's
boundary-rooted linear chain, the interior-rooted chain (root centred),
a bus, a star, and a balanced-ish tree, then compares optimal makespans.
This quantifies the positioning of the paper within the DLT mechanism
family ([9] trees, [14] buses): linear networks pay a steep relay price
as ``m`` grows, which is why the linear case needed its own mechanism
design (per-hop verification) rather than the star/tree machinery.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.batch import solve_many
from repro.dlt.bus import solve_bus
from repro.dlt.linear import solve_linear_boundary
from repro.dlt.linear_interior import solve_linear_interior
from repro.dlt.star import solve_star
from repro.dlt.tree import solve_tree
from repro.experiments.harness import ExperimentResult, Table
from repro.network.generators import random_tree_network
from repro.network.topology import BusNetwork, LinearNetwork, StarNetwork
from repro.experiments.workloads import WORKLOADS, Workload

__all__ = ["run_x2_topology", "topology_makespans"]


def topology_makespans(
    network: LinearNetwork, *, precomputed: dict[str, float] | None = None
) -> dict[str, float]:
    """Optimal makespans of the same resources under each architecture.

    The processor pool is ``network.w`` and the link pool ``network.z``;
    the bus uses the mean link rate (one shared medium).  ``precomputed``
    supplies already-solved makespans by architecture name
    (:func:`run_x2_topology` solves chain/star/bus for the whole workload
    in one pass).
    """
    w = network.w
    z = network.z
    pre = precomputed or {}
    spans = {
        "linear-boundary": pre["linear-boundary"]
        if "linear-boundary" in pre
        else solve_linear_boundary(network).makespan,
        "linear-interior": solve_linear_interior(w, z, int(network.m // 2)).makespan,
        "linear-best-root": min(
            solve_linear_interior(w, z, r).makespan for r in range(network.size)
        ),
        "star": pre["star"] if "star" in pre else solve_star(StarNetwork(w, z)).makespan,
        "bus": pre["bus"] if "bus" in pre else solve_bus(BusNetwork(w, float(z.mean()))).makespan,
    }
    # A random tree over the same node pool (seeded by the instance size
    # for determinism).
    rng = np.random.default_rng(network.size)
    tree = random_tree_network(network.size, rng)
    spans["tree(random)"] = solve_tree(tree).makespan
    return spans


def run_x2_topology(workload: Workload | None = None) -> ExperimentResult:
    workload = workload or WORKLOADS["medium-uniform"]
    table = Table(
        title="X2 — optimal makespan by architecture (same resources)",
        columns=[
            "m",
            "linear-boundary",
            "linear-interior",
            "linear-best-root",
            "star",
            "bus",
            "tree(random)",
            "star speedup",
        ],
        notes="star speedup = linear-boundary / star; grows with m (relay penalty of chains)",
    )
    all_ok = True
    pairs = list(workload.networks())
    # One batched pass per architecture over the whole workload;
    # chain/star/bus kernels are elementwise across instances.  The
    # interior-root and tree solves have no batch kernel and stay scalar.
    chains = solve_many([net for _m, net in pairs])
    stars = solve_many([StarNetwork(net.w, net.z) for _m, net in pairs])
    buses = solve_many([BusNetwork(net.w, float(net.z.mean())) for _m, net in pairs])
    by_m: dict[int, list[dict[str, float]]] = {}
    for (m, network), chain, star, bus in zip(pairs, chains, stars, buses):
        pre = {"linear-boundary": chain.makespan, "star": star.makespan, "bus": bus.makespan}
        by_m.setdefault(m, []).append(topology_makespans(network, precomputed=pre))
    for m in sorted(by_m):
        rows = by_m[m]
        means = {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}
        speedup = means["linear-boundary"] / means["star"]
        # Optimal root placement never loses to boundary origination (the
        # boundary is one of the candidate placements).
        all_ok &= means["linear-best-root"] <= means["linear-boundary"] + 1e-9
        # The star dominates the chain (dedicated links, no relaying).
        all_ok &= means["star"] <= means["linear-boundary"] + 1e-9
        table.add_row(
            m,
            means["linear-boundary"],
            means["linear-interior"],
            means["linear-best-root"],
            means["star"],
            means["bus"],
            means["tree(random)"],
            speedup,
        )
    return ExperimentResult(
        experiment_id="X2",
        description="X2 — linear vs interior vs star vs bus vs tree",
        tables=[table],
        passed=all_ok,
        summary=(
            "interior <= boundary and star <= boundary at every size (relay penalty confirmed)"
            if all_ok
            else "architecture ordering violated"
        ),
    )
