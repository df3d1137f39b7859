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

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.dlt.tree import allocate, collapse, finish_times, local_star
from repro.mechanism.payments import bonus as pair_bonus
from repro.mechanism.protocol import ProtocolOutcome, RunBooks, ScalarMechanism
from repro.network.topology import TreeNetwork
from repro.obs.tracer import Tracer

__all__ = ["TreeMechanism", "TreeOutcome"]


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
        self.flat = tree.preorder()
        size = self.flat.size
        self._configure(
            agents, list(range(1, size)), tree.root.w,
            fine=fine, total_load=total_load, tracer=tracer,
        )

    def _run_attrs(self) -> dict[str, Any]:
        return {
            "topology": "tree",
            "n": self.flat.size - 1,
            "fine": self.fine,
            "total_load": self.total_load,
        }

    def _run_protocol(self, metrics) -> TreeOutcome:
        tree = self.flat
        size = tree.size
        books = RunBooks(self, metrics, size)
        bids = books.bids
        w_bar, stars = collapse(tree, bids)
        books.w_bar = w_bar
        alpha = allocate(tree, stars, self.total_load)
        actual_rates = self._execution_rates(size)

        # Adjusted equivalents (eqs. 4.10/4.11 on subtrees): recompute the
        # node's local collapse at its actual rate when it ran slower than
        # bid; unchanged when it ran at least as fast (at an equal rate the
        # recomputed star is the collapse's own).
        w_hat = w_bar.copy()
        for node_id in range(1, size):
            rate = actual_rates[node_id]
            if rate > bids[node_id]:
                w_hat[node_id] = (
                    local_star(tree, node_id, rate, w_bar).makespan
                    if tree.children[node_id]
                    else rate
                )

        # Payments are settled directly (no bills to audit), under
        # "payment" memos that the reports count as neither fines nor
        # rewards.
        ledger = books.ledger
        ledger.pay(0, float(alpha[0]) * self.root_rate, "root reimbursement")
        correct_q = np.zeros(size)
        for node_id in range(1, size):
            b = pair_bonus(
                predecessor_bid=float(bids[tree.parent[node_id]]),
                z_link=float(tree.link[node_id]),
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
        makespan = float(finish_times(tree, alpha, stars, actual_rates).max())
        return self._completed(
            books, alpha, alpha.copy(), actual_rates, correct_q, correct_q, makespan
        )
