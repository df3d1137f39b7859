"""Unit tests for random network generators."""

import numpy as np
import pytest

from repro.network.generators import (
    REGIMES,
    draw_rates,
    random_linear_network,
    random_star_network,
    random_tree_network,
)


class TestRegimes:
    @pytest.mark.parametrize("name", sorted(REGIMES))
    def test_regimes_draw_positive_rates(self, name, rng):
        regime = REGIMES[name]
        w = regime.draw_w(rng, 100)
        z = regime.draw_z(rng, 100)
        assert np.all(w > 0) and np.all(z > 0)

    def test_regime_linear_helper(self, rng):
        net = REGIMES["uniform"].linear(4, rng)
        assert net.m == 4


class TestRandomLinear:
    def test_shape(self, rng):
        net = random_linear_network(7, rng)
        assert net.size == 8
        assert net.z.size == 7

    def test_zero_m(self, rng):
        net = random_linear_network(0, rng)
        assert net.size == 1

    def test_negative_m_rejected(self, rng):
        with pytest.raises(ValueError):
            random_linear_network(-1, rng)

    def test_reproducible_with_same_seed(self):
        a = random_linear_network(5, np.random.default_rng(1))
        b = random_linear_network(5, np.random.default_rng(1))
        assert np.array_equal(a.w, b.w) and np.array_equal(a.z, b.z)

    def test_regime_by_name_and_object(self, rng):
        by_name = random_linear_network(3, np.random.default_rng(2), regime="slow-links")
        by_obj = random_linear_network(3, np.random.default_rng(2), regime=REGIMES["slow-links"])
        assert np.array_equal(by_name.w, by_obj.w)

    def test_slow_links_regime_has_slow_links(self, rng):
        net = random_linear_network(20, rng, regime="slow-links")
        assert net.z.mean() > net.w.mean() / 3  # communication-dominant


class TestDrawRates:
    @pytest.mark.parametrize("name", sorted(REGIMES))
    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_linear_network_is_the_drawn_pair(self, name, m):
        w, z = draw_rates(m, np.random.default_rng(3), regime=name)
        net = random_linear_network(m, np.random.default_rng(3), regime=name)
        assert np.array_equal(w, net.w) and np.array_equal(z, net.z)
        assert w.shape == (m + 1,) and z.shape == (m,)

    @pytest.mark.parametrize("name", sorted(REGIMES))
    def test_star_network_is_the_drawn_pair(self, name):
        w, z = draw_rates(4, np.random.default_rng(3), regime=name)
        star = random_star_network(4, np.random.default_rng(3), regime=name)
        assert np.array_equal(w, star.w) and np.array_equal(z, star.z)

    def test_zero_links_draw_nothing(self):
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        draw_rates(0, rng_a)
        rng_b.uniform(1.0, 10.0, 1)
        assert rng_a.random() == rng_b.random()


class TestRandomStarAndTree:
    def test_star_shape(self, rng):
        star = random_star_network(6, rng)
        assert star.n_children == 6

    def test_star_needs_children(self, rng):
        with pytest.raises(ValueError):
            random_star_network(0, rng)

    def test_star_rejected_before_drawing(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            random_star_network(0, rng)
        assert rng.random() == np.random.default_rng(4).random()

    def test_tree_size(self, rng):
        tree = random_tree_network(10, rng)
        assert tree.size == 10

    def test_tree_single_node(self, rng):
        tree = random_tree_network(1, rng)
        assert tree.size == 1
        assert tree.root.children == []

    def test_tree_respects_max_children(self, rng):
        tree = random_tree_network(30, rng, max_children=2)

        def check(node):
            assert len(node.children) <= 2
            for child in node.children:
                check(child)

        check(tree.root)

    def test_tree_invalid_size(self, rng):
        with pytest.raises(ValueError):
            random_tree_network(0, rng)
