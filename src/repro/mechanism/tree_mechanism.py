"""DLS-T: a strategyproof payment rule for tree networks.

The authors' companion paper [9] ("A strategyproof mechanism for
scheduling divisible loads in tree networks", IPDPS 2006) covers the
tree case; the present paper cites it as the sibling of DLS-LBL.  This
module provides that baseline at the *tamper-proof* level of the model
hierarchy (Section 3): agents control their reported rate and their
execution speed, while the relay protocol itself is taken as faithful —
the autonomous-node verification machinery generalizes exactly as in
DLS-LBL (signed per-edge evidence, Λ certificates, grievances) and is
not re-implemented here.

Payments mirror eq. 4.4–4.11 verbatim, with the chain's "predecessor"
role played by the node's *parent*: for a node ``v`` with parent ``p``
over link ``z_v``,

.. math::

    B_v = w_p - \\bar w_p\\big(\\alpha((w_p, \\bar w_v)), (w_p, \\hat w_v)\\big)

— the two-party system of the parent's bid and ``v``'s collapsed
subtree, evaluated at ``v``'s adjusted equivalent time
:math:`\\hat w_v` (the subtree equivalent recomputed at ``v``'s metered
rate when it ran slower than bid, unchanged otherwise — eqs. 4.10/4.11
with the subtree in place of the chain suffix).  The strategyproofness
argument is Lemma 5.3's unchanged: the evaluated pair time is a max of a
branch increasing in the bid and a branch decreasing in it, crossing at
the truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.dlt.star import solve_star
from repro.mechanism.payments import bonus as pair_bonus
from repro.mechanism.protocol import ProtocolOutcome, RunBooks, ScalarMechanism
from repro.network.topology import StarNetwork, TreeNetwork, TreeNode
from repro.obs.tracer import Tracer

__all__ = ["TreeMechanism", "TreeOutcome", "TreeNodeInfo"]


@dataclass
class TreeNodeInfo:
    """Flattened view of one tree node (preorder id 0 is the root)."""

    node_id: int
    parent: int | None
    link: float | None
    children: list[int] = field(default_factory=list)
    label: str | None = None


def _flatten(tree: TreeNetwork) -> list[TreeNodeInfo]:
    infos: list[TreeNodeInfo] = []

    def visit(node: TreeNode, parent: int | None) -> int:
        node_id = len(infos)
        infos.append(
            TreeNodeInfo(node_id=node_id, parent=parent, link=node.link, label=node.label)
        )
        for child in node.children:
            child_id = visit(child, node_id)
            infos[node_id].children.append(child_id)
        return node_id

    visit(tree.root, None)
    return infos


@dataclass(kw_only=True)
class TreeOutcome(ProtocolOutcome):
    """Everything a tree-mechanism run produced (preorder indexing;
    ``w_bar`` holds the subtree equivalent times from the bids).

    The tree models the tamper-proof level: a run always completes,
    with no grievances and no audits."""


class TreeMechanism(ScalarMechanism):
    """One configured instance of the tree mechanism.

    Parameters
    ----------
    tree:
        The network *shape*: node links are taken from it; node ``w``
        values are ignored for strategic nodes (their bids rule) and used
        as the obedient root's rate.
    agents:
        Strategic agents for every non-root node, keyed by preorder id
        (``agent.index`` must equal the node id).

    When a tracer is attached the run is wrapped in a ``run`` span
    (``topology="tree"``) and every ledger movement emits a
    ``ledger_transfer`` event.  Tree runs count under
    ``mechanism.tree_runs`` to keep the chain-mechanism run counter
    untouched.
    """

    outcome_type = TreeOutcome
    runs_counter = "mechanism.tree_runs"
    perf_name = "mechanism_tree"

    def __init__(
        self,
        tree: TreeNetwork,
        agents: Sequence[ProcessorAgent],
        *,
        fine: float | None = None,
        total_load: float = 1.0,
        tracer: Tracer | None = None,
    ) -> None:
        self.tree = tree
        self.nodes = _flatten(tree)
        size = len(self.nodes)
        self._configure(
            agents, list(range(1, size)), tree.root.w,
            fine=fine, total_load=total_load, tracer=tracer,
        )

    def _run_attrs(self) -> dict[str, Any]:
        return {
            "topology": "tree",
            "n": len(self.nodes) - 1,
            "fine": self.fine,
            "total_load": self.total_load,
        }

    # -- core computations -------------------------------------------------

    def _subtree_equivalent(self, node_id: int, rates: np.ndarray, w_bar: np.ndarray) -> float:
        """Equivalent time of ``node_id``'s subtree given per-node rates
        and already-computed child equivalents."""
        info = self.nodes[node_id]
        if not info.children:
            return float(rates[node_id])
        w = np.array([rates[node_id]] + [w_bar[c] for c in info.children])
        z = np.array([self.nodes[c].link for c in info.children], dtype=np.float64)
        return solve_star(StarNetwork(w, z)).makespan

    def _collapse_all(self, rates: np.ndarray) -> np.ndarray:
        """Bottom-up subtree equivalents for every node (postorder)."""
        size = len(self.nodes)
        w_bar = np.zeros(size)
        for node_id in reversed(range(size)):  # preorder reversed = valid postorder here
            w_bar[node_id] = self._subtree_equivalent(node_id, rates, w_bar)
        return w_bar

    def _allocate(
        self, rates: np.ndarray, w_bar: np.ndarray
    ) -> tuple[np.ndarray, dict[int, list[int]]]:
        """Top-down unrolling of the per-node fractions, with each parent's
        service order (preorder child ids, :func:`solve_star`'s order)."""
        size = len(self.nodes)
        alpha = np.zeros(size)
        orders: dict[int, list[int]] = {}

        def unroll(node_id: int, load: float) -> None:
            info = self.nodes[node_id]
            if not info.children:
                alpha[node_id] = load
                return
            w = np.array([rates[node_id]] + [w_bar[c] for c in info.children])
            z = np.array([self.nodes[c].link for c in info.children], dtype=np.float64)
            sched = solve_star(StarNetwork(w, z))
            orders[node_id] = [info.children[slot - 1] for slot in sched.order]
            alpha[node_id] = load * float(sched.alpha[0])
            for slot, child in enumerate(info.children, start=1):
                unroll(child, load * float(sched.alpha[slot]))

        unroll(0, self.total_load)
        return alpha, orders

    def _finish_times(
        self, alpha: np.ndarray, orders: dict[int, list[int]], rates: np.ndarray
    ) -> np.ndarray:
        """Per-node finish times of allocation ``alpha`` at ``rates``.

        Level by level, as :func:`~repro.dlt.star.star_finishing_times`
        does for one star: a node computes its own share from its arrival
        time, and a parent sends each child its whole subtree load
        one-port, in ``orders``, so a child arrives when the parent's
        cumulative transmission time reaches it."""
        size = len(self.nodes)
        subtree = alpha.copy()
        for node_id in reversed(range(1, size)):  # descendants before ancestors
            subtree[self.nodes[node_id].parent] += subtree[node_id]
        arrival = np.zeros(size)
        finish = np.zeros(size)
        for node_id in range(size):  # preorder: parents before children
            finish[node_id] = arrival[node_id] + alpha[node_id] * rates[node_id]
            clock = 0.0
            for child in orders.get(node_id, ()):
                clock += subtree[child] * self.nodes[child].link
                arrival[child] = arrival[node_id] + clock
        return finish

    def _run_protocol(self, metrics) -> TreeOutcome:
        size = len(self.nodes)
        books = RunBooks(self, metrics, size)
        bids = books.bids
        books.w_bar = w_bar = self._collapse_all(bids)
        alpha, orders = self._allocate(bids, w_bar)
        actual_rates = self._execution_rates(size)

        # Adjusted equivalents (eqs. 4.10/4.11 on subtrees): recompute the
        # node's local collapse at its actual rate when it ran slower than
        # bid; unchanged when it ran at least as fast.
        w_hat = w_bar.copy()
        for node_id in range(1, size):
            if actual_rates[node_id] >= bids[node_id]:
                rates_eval = bids.copy()
                rates_eval[node_id] = actual_rates[node_id]
                w_hat[node_id] = self._subtree_equivalent(node_id, rates_eval, w_bar)

        # Payments are settled directly (no bills to audit), under
        # "payment" memos that the reports count as neither fines nor
        # rewards.
        ledger = books.ledger
        ledger.pay(0, float(alpha[0]) * self.root_rate, "root reimbursement")
        correct_q = np.zeros(size)
        for node_id in range(1, size):
            info = self.nodes[node_id]
            assert info.parent is not None and info.link is not None
            b = pair_bonus(
                predecessor_bid=float(bids[info.parent]),
                z_link=float(info.link),
                w_bar=float(w_bar[node_id]),
                w_hat=float(w_hat[node_id]),
            )
            compensation = float(alpha[node_id]) * float(actual_rates[node_id])
            correct_q[node_id] = compensation + b
            if correct_q[node_id] >= 0:
                ledger.pay(node_id, correct_q[node_id], "payment")
            else:
                ledger.fine(node_id, -correct_q[node_id], "payment (negative)")

        # The realized makespan: when the bid-derived allocation finishes
        # at the metered rates (``w_bar[0] * W`` when everyone is truthful).
        makespan = float(self._finish_times(alpha, orders, actual_rates).max())
        return self._completed(
            books, alpha, alpha.copy(), actual_rates, correct_q, correct_q, makespan
        )
