"""Random network generators used by experiments and property tests.

Heterogeneity regimes model the environments the paper motivates:
processors "owned and operated by autonomous, self-interested
organizations" naturally have widely varying capacities.  All draws go
through an explicit :class:`numpy.random.Generator` so experiments are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.network.topology import LinearNetwork, StarNetwork, TreeNetwork, TreeNode

__all__ = [
    "NetworkRegime",
    "REGIMES",
    "Uniform",
    "draw_rates",
    "random_linear_network",
    "random_star_network",
    "random_tree_network",
]


@dataclass(frozen=True)
class NetworkRegime:
    """A named distribution over ``(w, z)`` rate pairs.

    Attributes
    ----------
    name:
        Regime identifier used in experiment tables.
    draw_w, draw_z:
        Callables ``(rng, size) -> ndarray`` of strictly positive rates.
    description:
        One-line description printed by the experiment harness.
    """

    name: str
    draw_w: Callable[[np.random.Generator, int], np.ndarray]
    draw_z: Callable[[np.random.Generator, int], np.ndarray]
    description: str

    def linear(self, m: int, rng: np.random.Generator) -> LinearNetwork:
        """Draw an ``(m+1)``-processor linear network."""
        return random_linear_network(m, rng, regime=self)


@dataclass(frozen=True)
class Uniform:
    """``rng.uniform(low, high, size)`` as a regime draw, with its bounds
    readable by callers that draw standard uniforms themselves."""

    low: float
    high: float

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)

    def scale(self, unit: np.ndarray) -> np.ndarray:
        """``rng.uniform``'s arithmetic, ``low + (high - low) * d``, on
        standard draws ``d``: ``scale(rng.random(n))`` equals
        ``rng.uniform(low, high, n)`` on the same stream bitwise."""
        return self.low + (self.high - self.low) * unit


def _lognormal(mean: float, sigma: float) -> Callable[[np.random.Generator, int], np.ndarray]:
    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(mean, sigma, size)

    return draw


#: Named regimes used throughout the experiment suite.
REGIMES: dict[str, NetworkRegime] = {
    "uniform": NetworkRegime(
        name="uniform",
        draw_w=Uniform(1.0, 10.0),
        draw_z=Uniform(0.1, 1.0),
        description="w ~ U(1, 10), z ~ U(0.1, 1): fast links, mixed CPUs",
    ),
    "homogeneous": NetworkRegime(
        name="homogeneous",
        draw_w=Uniform(5.0, 5.0 + 1e-9),
        draw_z=Uniform(0.5, 0.5 + 1e-9),
        description="identical processors and links",
    ),
    "heterogeneous": NetworkRegime(
        name="heterogeneous",
        draw_w=_lognormal(1.0, 0.75),
        draw_z=_lognormal(-1.0, 0.5),
        description="lognormal rates: heavy-tailed organizational diversity",
    ),
    "slow-links": NetworkRegime(
        name="slow-links",
        draw_w=Uniform(1.0, 5.0),
        draw_z=Uniform(2.0, 10.0),
        description="communication dominates computation",
    ),
    "fast-links": NetworkRegime(
        name="fast-links",
        draw_w=Uniform(5.0, 20.0),
        draw_z=Uniform(0.01, 0.1),
        description="computation dominates communication",
    ),
}


def draw_rates(
    m: int,
    rng: np.random.Generator,
    *,
    regime: NetworkRegime | str = "uniform",
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the ``(w, z)`` rates of an ``(m+1)``-processor chain or star.

    The one draw order both topologies share: ``m + 1`` processor rates
    (root first), then ``m`` link rates (none when ``m == 0``).  Stacked
    callers that fill rate matrices row by row call this directly, so
    their rows equal :func:`random_linear_network` /
    :func:`random_star_network` on the same generator bitwise.
    """
    if isinstance(regime, str):
        regime = REGIMES[regime]
    w = regime.draw_w(rng, m + 1)
    z = regime.draw_z(rng, m) if m > 0 else np.empty(0)
    return w, z


def random_linear_network(
    m: int,
    rng: np.random.Generator,
    *,
    regime: NetworkRegime | str = "uniform",
) -> LinearNetwork:
    """Draw a random ``(m+1)``-processor boundary-rooted linear network.

    Parameters
    ----------
    m:
        Index of the last processor (network has ``m + 1`` processors).
    rng:
        Source of randomness.
    regime:
        A :class:`NetworkRegime` or the name of one in :data:`REGIMES`.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return LinearNetwork(*draw_rates(m, rng, regime=regime))


def random_star_network(
    n_children: int,
    rng: np.random.Generator,
    *,
    regime: NetworkRegime | str = "uniform",
) -> StarNetwork:
    """Draw a random star network with ``n_children`` children."""
    if n_children < 1:
        raise ValueError("star needs at least one child")
    return StarNetwork(*draw_rates(n_children, rng, regime=regime))


def random_tree_network(
    size: int,
    rng: np.random.Generator,
    *,
    regime: NetworkRegime | str = "uniform",
    max_children: int = 3,
) -> TreeNetwork:
    """Draw a random rooted tree with ``size`` nodes.

    Each new node attaches to a uniformly random existing node that still
    has fewer than ``max_children`` children, yielding varied shapes from
    chains to bushy trees.
    """
    if size < 1:
        raise ValueError("tree needs at least one node")
    if isinstance(regime, str):
        regime = REGIMES[regime]
    w = regime.draw_w(rng, size)
    z = regime.draw_z(rng, size)
    root = TreeNode(w=float(w[0]), label="P0")
    nodes = [root]
    for i in range(1, size):
        open_nodes = [node for node in nodes if len(node.children) < max_children]
        parent = open_nodes[int(rng.integers(len(open_nodes)))]
        child = TreeNode(w=float(w[i]), link=float(z[i]), label=f"P{i}")
        parent.children.append(child)
        nodes.append(child)
    return TreeNetwork(root=root)
