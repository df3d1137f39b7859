"""Integration tests for the tree mechanism (DLS-T baseline)."""

import numpy as np
import pytest

from repro.agents.strategies import MisbiddingAgent, SlowExecutionAgent, TruthfulAgent
from repro.dlt.tree import solve_tree
from repro.exceptions import InvalidNetworkError
from repro.mechanism.tree_mechanism import TreeMechanism
from repro.network.topology import TreeNetwork, TreeNode


@pytest.fixture(scope="module")
def tree():
    """A fixed 7-node tree: root with two subtrees of different depth."""
    return TreeNetwork(
        root=TreeNode(
            w=2.0,
            label="root",
            children=[
                TreeNode(
                    w=3.0, link=0.5, label="a",
                    children=[
                        TreeNode(w=2.5, link=0.3, label="a1"),
                        TreeNode(w=4.0, link=0.6, label="a2"),
                    ],
                ),
                TreeNode(
                    w=1.8, link=0.4, label="b",
                    children=[TreeNode(w=2.2, link=0.2, label="b1",
                                       children=[TreeNode(w=3.5, link=0.7, label="b2")])],
                ),
            ],
        )
    )


RATES = [2.0, 3.0, 2.5, 4.0, 1.8, 2.2, 3.5]  # preorder


def run(tree, overrides=None):
    overrides = overrides or {}
    agents = [overrides.get(i, TruthfulAgent(i, RATES[i])) for i in range(1, tree.size)]
    return TreeMechanism(tree, agents).run()


@pytest.fixture(scope="module")
def baseline(tree):
    return run(tree)


class TestOutcomeFields:
    @pytest.mark.parametrize(
        "agent", [MisbiddingAgent(2, RATES[2], bid_factor=1.5), SlowExecutionAgent(3, RATES[3], slowdown=2.0)],
        ids=["misbid", "slow"],
    )
    def test_always_completes_with_no_verdicts(self, tree, agent):
        outcome = run(tree, {agent.index: agent})
        assert outcome.completed and outcome.aborted_phase is None
        assert outcome.adjudications == [] and outcome.audits == []
        # The "payment" memos are the payment, never a fine or reward.
        for report in outcome.reports.values():
            assert report.fines == 0.0 and report.rewards == 0.0
            assert report.payment_billed == report.payment_correct


class TestHonestRun:
    def test_matches_tree_solver(self, tree, baseline):
        sched = solve_tree(tree)
        assert np.allclose(baseline.assigned, sched.alpha)
        assert baseline.makespan == pytest.approx(sched.makespan)

    def test_voluntary_participation(self, tree, baseline):
        for i in range(1, tree.size):
            assert baseline.utility(i) >= 0

    def test_root_utility_zero(self, baseline):
        assert baseline.utility(0) == 0.0

    def test_ledger_conserved(self, baseline):
        assert abs(baseline.ledger.total_balance()) < 1e-9

    def test_utility_is_pairwise_bonus(self, tree, baseline):
        # U_v = w_parent - w_bar_parent_pair(eval) = pair bonus at truth:
        # for truthful full-speed agents this is w_p - alpha_hat * w_p
        # of the (parent, subtree) pair.
        from repro.mechanism.payments import bonus

        flat = tree.preorder()
        for i in range(1, tree.size):
            parent = flat.parent[i]
            expected = bonus(
                predecessor_bid=RATES[parent],
                z_link=flat.link[i],
                w_bar=baseline.w_bar[i],
                w_hat=baseline.w_bar[i],
            )
            assert baseline.utility(i) == pytest.approx(expected)


class TestStrategyproofness:
    @pytest.mark.parametrize("node", [1, 2, 3, 4, 5, 6])
    def test_misbids_never_beat_truth(self, tree, baseline, node):
        for factor in (0.4, 0.8, 1.3, 2.5):
            outcome = run(tree, {node: MisbiddingAgent(node, RATES[node], bid_factor=factor)})
            assert outcome.utility(node) <= baseline.utility(node) + 1e-9

    @pytest.mark.parametrize("node", [1, 4, 6])
    def test_slow_execution_loses(self, tree, baseline, node):
        outcome = run(tree, {node: SlowExecutionAgent(node, RATES[node], slowdown=1.6)})
        assert outcome.utility(node) < baseline.utility(node)

    def test_leaf_w_hat_is_actual_rate(self, tree):
        # A slow leaf's adjusted equivalent equals its metered rate
        # (eq. 4.10 on subtrees).
        outcome = run(tree, {3: SlowExecutionAgent(3, RATES[3], slowdown=2.0)})
        report = outcome.reports[3]
        assert report.actual_rate == pytest.approx(2.0 * RATES[3])


class TestUnaryTreeEquivalence:
    def test_matches_dls_lbl_payments_on_chains(self):
        # A unary tree is a chain: the tree mechanism's payments must
        # equal DLS-LBL's for truthful agents.
        from repro.mechanism.properties import run_truthful
        from repro.network.topology import LinearNetwork

        net = LinearNetwork(w=[2.0, 3.0, 2.5, 4.0], z=[0.5, 0.3, 0.7])
        chain_outcome = run_truthful(net.z, float(net.w[0]), net.w[1:])
        tree = TreeNetwork.from_linear(net)
        agents = [TruthfulAgent(i, float(net.w[i])) for i in range(1, net.size)]
        tree_outcome = TreeMechanism(tree, agents).run()
        for i in range(1, net.size):
            assert tree_outcome.utility(i) == pytest.approx(chain_outcome.utility(i))
            assert tree_outcome.reports[i].payment_correct == pytest.approx(
                chain_outcome.reports[i].payment_correct
            )


class TestRealizedMakespan:
    """The reported makespan is when the *bid* allocation finishes at the
    metered rates, not the optimum re-solved for the slowed tree."""

    def test_slow_child_finishes_late(self):
        # Bids [1, 1] over link 1 give the child 1/3 of the load, arriving
        # at 1/3; computing it at rate 3 takes until 1/3 + 1 = 4/3.  The
        # collapse re-solved at actual rates would report 0.8.
        tree = TreeNetwork(root=TreeNode(w=1.0, children=[TreeNode(w=1.0, link=1.0)]))
        outcome = TreeMechanism(tree, [SlowExecutionAgent(1, 1.0, slowdown=3.0)]).run()
        assert outcome.makespan == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize("slow", [1, 2, 3])
    def test_unary_tree_matches_chain_simulation(self, slow):
        # A unary tree is a chain: its realized makespan is the one the
        # chain mechanism's Phase III simulation measures.
        from repro.mechanism.dls_lbl import DLSLBLMechanism
        from repro.network.topology import LinearNetwork

        net = LinearNetwork(w=[2.0, 3.0, 2.5, 4.0], z=[0.5, 0.3, 0.7])

        def agents():
            return [
                SlowExecutionAgent(i, float(net.w[i]), slowdown=2.5)
                if i == slow
                else TruthfulAgent(i, float(net.w[i]))
                for i in range(1, net.size)
            ]

        chain = DLSLBLMechanism(net.z, float(net.w[0]), agents(), audit_probability=1.0).run()
        tree = TreeMechanism(TreeNetwork.from_linear(net), agents()).run()
        assert tree.makespan == pytest.approx(chain.makespan)


class TestConstruction:
    def test_agent_coverage(self, tree):
        with pytest.raises(InvalidNetworkError):
            TreeMechanism(tree, [TruthfulAgent(1, 2.0)])


class TestFineBoundRegression:
    """The default fine must cover the admissible bill overcharge.

    Before the fix, ``TreeMechanism`` computed its default fine without
    the ``max_overcharge`` allowance every other mechanism passes
    (``recommended_fine(..., max_overcharge=10 * max(w))``): a tree
    overcharger inflating its bill by the modeled ``10 * max(w)`` cap
    pocketed more than the old fine, breaking Theorem 5.2's deterrence.
    """

    def test_old_default_underestimated_overcharge_profit(self, tree):
        from repro.mechanism.payments import recommended_fine

        true_rates = np.array(RATES)
        admissible_profit = 10.0 * true_rates.max()
        # What the tree mechanism used to charge (no max_overcharge):
        old_fine = recommended_fine(true_rates, total_load=1.0)
        assert old_fine < admissible_profit  # the bug this guards against

    def test_default_fine_exceeds_overcharge_profit(self, tree):
        from repro.mechanism.payments import recommended_fine

        agents = [TruthfulAgent(i, RATES[i]) for i in range(1, tree.size)]
        mech = TreeMechanism(tree, agents)
        true_rates = np.array(RATES)
        admissible_profit = 10.0 * true_rates.max()
        # Fails on the old bound (16 < 40 for these rates), passes with
        # the max_overcharge allowance in place (fine = 96).
        assert mech.fine > admissible_profit
        assert mech.fine == recommended_fine(
            true_rates, total_load=1.0, max_overcharge=admissible_profit
        )
