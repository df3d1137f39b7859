"""Unit tests for the star, bus, and tree solvers (comparator
architectures from the authors' prior work [9, 14])."""

import numpy as np
import pytest

from repro.dlt.bus import solve_bus
from repro.dlt.linear import solve_linear_boundary
from repro.dlt.star import (
    optimal_order_bruteforce,
    solve_star,
    star_finishing_times,
    star_makespan_for_order,
)
import repro.dlt.tree
from repro.dlt.tree import collapse, finish_times, solve_tree, tree_equivalent_time
from repro.exceptions import SolverError
from repro.network.generators import random_star_network, random_tree_network
from repro.network.topology import BusNetwork, LinearNetwork, StarNetwork, TreeNetwork


class TestStar:
    def test_alpha_is_simplex(self, rng):
        star = random_star_network(5, rng)
        sched = solve_star(star)
        assert sched.alpha.sum() == pytest.approx(1.0)
        assert np.all(sched.alpha > 0)

    def test_equal_finish(self, rng):
        star = random_star_network(5, rng)
        sched = solve_star(star)
        t = star_finishing_times(star, sched.alpha, sched.order)
        assert np.allclose(t, sched.makespan)

    def test_makespan_is_roots_time(self, rng):
        star = random_star_network(4, rng)
        sched = solve_star(star)
        assert sched.makespan == pytest.approx(float(sched.alpha[0] * star.w[0]))

    def test_by_link_matches_bruteforce(self, rng):
        for _ in range(10):
            star = random_star_network(5, rng)
            by_link = solve_star(star, order="by-link")
            brute = solve_star(star, order="bruteforce")
            assert by_link.makespan == pytest.approx(brute.makespan)

    def test_explicit_order(self):
        star = StarNetwork(w=[1.0, 2.0, 3.0], z=[0.5, 0.6])
        sched = solve_star(star, order=(2, 1))
        assert sched.order == (2, 1)

    def test_bad_order_rejected(self):
        star = StarNetwork(w=[1.0, 2.0, 3.0], z=[0.5, 0.6])
        with pytest.raises(SolverError):
            solve_star(star, order=(1, 1))
        with pytest.raises(SolverError):
            solve_star(star, order="nonsense")

    def test_one_child_star_equals_two_proc_chain(self):
        star = StarNetwork(w=[2.0, 2.0], z=[1.0])
        chain = LinearNetwork(w=[2.0, 2.0], z=[1.0])
        assert solve_star(star).makespan == pytest.approx(
            solve_linear_boundary(chain).makespan
        )

    def test_order_changes_makespan_generally(self, rng):
        # With heterogeneous links some order is strictly worse.
        star = StarNetwork(w=[1.0, 1.0, 1.0], z=[0.1, 5.0])
        best = star_makespan_for_order(star, optimal_order_bruteforce(star))
        worst = max(
            star_makespan_for_order(star, (1, 2)),
            star_makespan_for_order(star, (2, 1)),
        )
        assert best < worst


class TestBus:
    def test_bus_equals_equal_link_star(self, rng):
        bus = BusNetwork(w=[1.0, 2.0, 3.0, 4.0], z=0.5)
        star = bus.as_star()
        assert solve_bus(bus).makespan == pytest.approx(solve_star(star).makespan)

    def test_bus_order_irrelevant(self):
        bus = BusNetwork(w=[1.0, 2.0, 3.0], z=0.5)
        star = bus.as_star()
        a = solve_star(star, order=(1, 2)).makespan
        b = solve_star(star, order=(2, 1)).makespan
        assert a == pytest.approx(b)

    def test_bus_slower_than_dedicated_star(self, rng):
        # A shared bus at the mean rate cannot beat dedicated links with
        # some faster than the mean ... unless all links equal; use a
        # spread so the comparison is strict on the faster-link side.
        w = [2.0, 3.0, 4.0, 5.0]
        z_links = np.array([0.1, 0.1, 2.0])
        star = StarNetwork(w, z_links)
        # Bus at the slowest link rate is no better than the star with
        # mixed links served fast-first.
        bus = BusNetwork(w, float(z_links.max()))
        assert solve_star(star).makespan <= solve_bus(bus).makespan + 1e-12


class TestTree:
    def test_alpha_is_simplex(self, rng):
        tree = random_tree_network(9, rng)
        sched = solve_tree(tree)
        assert sched.alpha.sum() == pytest.approx(1.0)
        assert np.all(sched.alpha > 0)
        assert len(sched.labels) == 9

    def test_unary_tree_matches_linear(self, rng):
        from repro.network.generators import random_linear_network

        net = random_linear_network(6, rng)
        tree = TreeNetwork.from_linear(net)
        tree_sched = solve_tree(tree)
        lin_sched = solve_linear_boundary(net)
        assert tree_sched.makespan == pytest.approx(lin_sched.makespan)
        assert np.allclose(tree_sched.alpha, lin_sched.alpha)

    def test_depth_one_tree_matches_star(self, rng):
        star = random_star_network(4, rng)
        tree = TreeNetwork.from_star(star)
        assert solve_tree(tree).makespan == pytest.approx(solve_star(star).makespan)

    def test_single_node(self):
        from repro.network.topology import TreeNode

        tree = TreeNetwork(root=TreeNode(w=3.0))
        sched = solve_tree(tree)
        assert sched.alpha == pytest.approx([1.0])
        assert sched.makespan == pytest.approx(3.0)

    def test_equivalent_time_helper(self, rng):
        tree = random_tree_network(7, rng)
        assert tree_equivalent_time(tree) == pytest.approx(solve_tree(tree).makespan)

    def test_adding_subtree_helps(self, rng):
        from repro.network.topology import TreeNode

        base = TreeNetwork(root=TreeNode(w=3.0, children=[TreeNode(w=3.0, link=0.2)]))
        extended = TreeNetwork(
            root=TreeNode(
                w=3.0,
                children=[
                    TreeNode(w=3.0, link=0.2, children=[TreeNode(w=3.0, link=0.2)]),
                ],
            )
        )
        assert solve_tree(extended).makespan < solve_tree(base).makespan

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_finish(self, seed):
        # The tree analogue of Theorem 2.1: at the optimum every node
        # finishes at the makespan.  finish_times clocks the one-port
        # transfers directly, independent of the collapse's algebra.
        rng = np.random.default_rng(seed)
        for size in range(2, 16):
            network = random_tree_network(size, rng)
            tree = network.preorder()
            sched = solve_tree(network)
            _, stars = collapse(tree, tree.w)
            t = finish_times(tree, sched.alpha, stars, tree.w)
            np.testing.assert_allclose(t, sched.makespan, rtol=1e-12, atol=0.0)

    def test_one_star_solve_per_internal_node(self, monkeypatch):
        from repro.agents.strategies import TruthfulAgent
        from repro.mechanism.tree_mechanism import TreeMechanism

        calls = []
        real = repro.dlt.tree.solve_star
        monkeypatch.setattr(repro.dlt.tree, "solve_star", lambda net: calls.append(net) or real(net))
        network = random_tree_network(12, np.random.default_rng(3))
        tree = network.preorder()
        internal = sum(1 for children in tree.children if children)
        agents = [TruthfulAgent(i, float(tree.w[i])) for i in range(1, tree.size)]
        TreeMechanism(network, agents).run()
        assert internal > 1 and len(calls) == internal
