"""Optimal divisible-load schedule for rooted tree networks.

Generalizes the reduction of Fig. 3 to trees (the architecture of the
authors' prior tree mechanism [9]): each subtree collapses bottom-up into
an equivalent processor, every internal node then faces a *star* problem
over its (collapsed) children, and the star's per-unit-load makespan is
the subtree's equivalent processing time.  Unrolling the star fractions
top-down yields the global allocation.

The passes sweep :meth:`~repro.network.topology.TreeNetwork.preorder`'s
flat nodes; the tree mechanism runs them at its agents' bids.

A unary tree reduces to the linear boundary problem; tests assert the two
solvers agree exactly.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.allocation import StarSchedule, TreeSchedule
from repro.dlt.star import solve_star
from repro.network.topology import FlatTree, StarNetwork, TreeNetwork

__all__ = [
    "allocate", "collapse", "finish_times", "local_star", "solve_tree", "tree_equivalent_time"
]


def local_star(tree: FlatTree, node: int, rate: float, w_bar: np.ndarray) -> StarSchedule:
    """The star an internal ``node`` faces: itself at ``rate``, and each
    child's collapsed subtree (``w_bar``) behind its parent link.  The
    star's ``alpha`` is indexed node first, then children in list order."""
    children = list(tree.children[node])
    w = np.concatenate(([rate], w_bar[children]))
    return solve_star(StarNetwork(w, tree.link[children]))


def collapse(tree: FlatTree, rates: np.ndarray) -> tuple[np.ndarray, dict[int, StarSchedule]]:
    """Subtree equivalent times ``w_bar`` at per-node ``rates`` (a leaf's
    is its rate), and the star each internal node solved on the way."""
    w_bar = np.array(rates, dtype=np.float64)
    stars: dict[int, StarSchedule] = {}
    for node in reversed(range(tree.size)):  # descendants before ancestors
        if tree.children[node]:
            stars[node] = local_star(tree, node, w_bar[node], w_bar)
            w_bar[node] = stars[node].makespan
    return w_bar, stars


def allocate(tree: FlatTree, stars: dict[int, StarSchedule], load: float = 1.0) -> np.ndarray:
    """Per-node fractions of ``load``, unrolling :func:`collapse`'s stars
    top-down: each node keeps its star's own share of its subtree's load
    and hands each child the child's share."""
    alpha = np.empty(tree.size)
    alpha[0] = load  # each entry holds its subtree's load until its node is reached
    for node in sorted(stars):  # preorder: parents before children
        star = stars[node]
        for slot, child in enumerate(tree.children[node], start=1):
            alpha[child] = alpha[node] * float(star.alpha[slot])
        alpha[node] *= float(star.alpha[0])
    return alpha


def finish_times(
    tree: FlatTree, alpha: np.ndarray, stars: dict[int, StarSchedule], rates: np.ndarray
) -> np.ndarray:
    """Per-node finish times of allocation ``alpha`` at ``rates``.

    Level by level, as :func:`~repro.dlt.star.star_finishing_times`
    does for one star: a node computes its own share from its arrival
    time, and a parent sends each child its whole subtree load
    one-port, in its star's service order, so a child arrives when the
    parent's cumulative transmission time reaches it."""
    size = tree.size
    subtree = alpha.copy()
    for node in reversed(range(1, size)):  # descendants before ancestors
        subtree[tree.parent[node]] += subtree[node]
    arrival = np.zeros(size)
    finish = np.zeros(size)
    for node in range(size):  # preorder: parents before children
        finish[node] = arrival[node] + alpha[node] * rates[node]
        if node in stars:
            clock = 0.0
            for slot in stars[node].order:
                child = tree.children[node][slot - 1]
                clock += subtree[child] * tree.link[child]
                arrival[child] = arrival[node] + clock
    return finish


def solve_tree(network: TreeNetwork) -> TreeSchedule:
    """Solve the tree divisible-load problem for a unit load.

    Returns a :class:`~repro.dlt.allocation.TreeSchedule` with fractions
    in preorder (root first).
    """
    tree = network.preorder()
    w_bar, stars = collapse(tree, tree.w)
    makespan = float(w_bar[0])
    return TreeSchedule(
        network=network,
        alpha=allocate(tree, stars),
        labels=tree.labels,
        w_eq_root=makespan,
        makespan=makespan,
    )


def tree_equivalent_time(network: TreeNetwork) -> float:
    """Equivalent processing time of the fully collapsed tree."""
    return solve_tree(network).makespan
