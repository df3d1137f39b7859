"""Unit tests for network specifications (repro.network.topology)."""

import numpy as np
import pytest

from repro.exceptions import InvalidNetworkError
from repro.network.topology import (
    BusNetwork,
    LinearNetwork,
    StarNetwork,
    TreeNetwork,
    TreeNode,
)


class TestLinearNetwork:
    def test_basic_construction(self):
        net = LinearNetwork(w=[1.0, 2.0, 3.0], z=[0.5, 0.25])
        assert net.size == 3
        assert net.m == 2
        assert np.array_equal(net.w, [1.0, 2.0, 3.0])

    def test_arrays_are_immutable(self):
        net = LinearNetwork(w=[1.0, 2.0], z=[0.5])
        with pytest.raises(ValueError):
            net.w[0] = 9.0

    def test_single_processor(self):
        net = LinearNetwork(w=[2.0], z=[])
        assert net.m == 0

    def test_single_processor_rejects_links(self):
        with pytest.raises(InvalidNetworkError):
            LinearNetwork(w=[2.0], z=[1.0])

    def test_link_count_mismatch(self):
        with pytest.raises(InvalidNetworkError):
            LinearNetwork(w=[1.0, 2.0, 3.0], z=[0.5])

    @pytest.mark.parametrize("bad_w", [[-1.0, 2.0], [0.0, 2.0], [np.inf, 2.0], [np.nan, 2.0]])
    def test_invalid_rates_rejected(self, bad_w):
        with pytest.raises(InvalidNetworkError):
            LinearNetwork(w=bad_w, z=[0.5])

    def test_empty_rejected(self):
        with pytest.raises(InvalidNetworkError):
            LinearNetwork(w=[], z=[])

    def test_two_dimensional_rejected(self):
        with pytest.raises(InvalidNetworkError):
            LinearNetwork(w=[[1.0, 2.0]], z=[0.5])

    def test_segment(self):
        net = LinearNetwork(w=[1.0, 2.0, 3.0, 4.0], z=[0.1, 0.2, 0.3])
        seg = net.segment(1, 2)
        assert np.array_equal(seg.w, [2.0, 3.0])
        assert np.array_equal(seg.z, [0.2])

    def test_segment_defaults_to_suffix(self):
        net = LinearNetwork(w=[1.0, 2.0, 3.0], z=[0.1, 0.2])
        seg = net.segment(1)
        assert np.array_equal(seg.w, [2.0, 3.0])

    def test_segment_out_of_range(self):
        net = LinearNetwork(w=[1.0, 2.0], z=[0.1])
        with pytest.raises(InvalidNetworkError):
            net.segment(1, 5)
        with pytest.raises(InvalidNetworkError):
            net.segment(-1, 1)

    def test_with_rates_replaces_one_entry(self):
        net = LinearNetwork(w=[1.0, 2.0, 3.0], z=[0.1, 0.2])
        changed = net.with_rates(1, 9.0)
        assert changed.w[1] == 9.0
        assert net.w[1] == 2.0  # original untouched

    def test_reversed(self):
        net = LinearNetwork(w=[1.0, 2.0, 3.0], z=[0.1, 0.2])
        rev = net.reversed()
        assert np.array_equal(rev.w, [3.0, 2.0, 1.0])
        assert np.array_equal(rev.z, [0.2, 0.1])
        assert np.array_equal(rev.reversed().w, net.w)

    def test_to_networkx_structure(self):
        net = LinearNetwork(w=[1.0, 2.0, 3.0], z=[0.1, 0.2])
        graph = net.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2
        assert graph.nodes[0]["root"] is True
        assert graph.edges[0, 1]["z"] == 0.1


class TestBusNetwork:
    def test_construction(self):
        bus = BusNetwork(w=[1.0, 2.0, 3.0], z=0.5)
        assert bus.size == 3
        assert bus.z == 0.5

    def test_invalid_bus_rate(self):
        with pytest.raises(InvalidNetworkError):
            BusNetwork(w=[1.0, 2.0], z=0.0)

    def test_as_star_copies_bus_rate_to_all_links(self):
        bus = BusNetwork(w=[1.0, 2.0, 3.0], z=0.5)
        star = bus.as_star()
        assert np.array_equal(star.z, [0.5, 0.5])


class TestStarNetwork:
    def test_construction(self):
        star = StarNetwork(w=[1.0, 2.0, 3.0], z=[0.5, 0.6])
        assert star.n_children == 2

    def test_needs_at_least_one_child(self):
        with pytest.raises(InvalidNetworkError):
            StarNetwork(w=[1.0], z=[])

    def test_link_count_mismatch(self):
        with pytest.raises(InvalidNetworkError):
            StarNetwork(w=[1.0, 2.0, 3.0], z=[0.5])


class TestTreeNetwork:
    def test_node_validation(self):
        with pytest.raises(InvalidNetworkError):
            TreeNode(w=-1.0)
        with pytest.raises(InvalidNetworkError):
            TreeNode(w=1.0, link=0.0)

    def test_root_must_not_have_link(self):
        with pytest.raises(InvalidNetworkError):
            TreeNetwork(root=TreeNode(w=1.0, link=0.5))

    def test_node_count_and_depth(self):
        root = TreeNode(w=1.0, children=[
            TreeNode(w=2.0, link=0.1, children=[TreeNode(w=3.0, link=0.2)]),
            TreeNode(w=4.0, link=0.3),
        ])
        tree = TreeNetwork(root=root)
        assert tree.size == 4
        assert root.depth() == 2

    def test_preorder_flattens_parents_first(self):
        root = TreeNode(w=1.0, label="r", children=[
            TreeNode(w=2.0, link=0.1, label="a", children=[TreeNode(w=3.0, link=0.2, label="a1")]),
            TreeNode(w=4.0, link=0.3, label="b"),
        ])
        tree = TreeNetwork(root=root)
        flat = tree.preorder()
        assert flat.size == 4 and flat.w.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert np.isnan(flat.link[0]) and flat.link[1:].tolist() == [0.1, 0.2, 0.3]
        assert flat.parent.tolist() == [-1, 0, 1, 0]
        assert flat.children == ((1, 3), (2,), (), ())
        assert flat.labels == ("r", "a", "a1", "b")
        assert not flat.w.flags.writeable
        graph = tree.to_networkx()
        assert graph.nodes[2] == {"w": 3.0, "label": "a1"}
        assert graph.edges[1, 2] == {"z": 0.2}

    def test_from_linear_preserves_rates(self):
        net = LinearNetwork(w=[1.0, 2.0, 3.0], z=[0.1, 0.2])
        tree = TreeNetwork.from_linear(net)
        assert tree.size == 3
        assert tree.root.w == 1.0
        child = tree.root.children[0]
        assert child.w == 2.0 and child.link == 0.1
        grandchild = child.children[0]
        assert grandchild.w == 3.0 and grandchild.link == 0.2

    def test_from_star(self):
        star = StarNetwork(w=[1.0, 2.0, 3.0], z=[0.5, 0.6])
        tree = TreeNetwork.from_star(star)
        assert tree.size == 3
        assert len(tree.root.children) == 2
        assert tree.root.depth() == 1

    def test_to_networkx(self):
        star = StarNetwork(w=[1.0, 2.0, 3.0], z=[0.5, 0.6])
        graph = TreeNetwork.from_star(star).to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2
