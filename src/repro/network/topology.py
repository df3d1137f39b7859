"""Network specifications.

All processing rates follow the paper's convention: ``w_i`` is the *time
to process a unit load* on processor ``P_i`` (smaller is faster), and
``z_j`` is the *time to communicate a unit load* over link ``l_j``.

The linear network (Fig. 1) is a chain ``P_0 - l_1 - P_1 - ... - l_m - P_m``
with the load originating at ``P_0``.  With *boundary* origination ``P_0``
is a terminal of the chain; with *interior* origination it sits between a
left and a right arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import InvalidNetworkError

__all__ = ["LinearNetwork", "BusNetwork", "StarNetwork", "TreeNetwork", "TreeNode", "FlatTree"]


def _as_positive_array(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidNetworkError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidNetworkError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidNetworkError(f"{name} must be finite")
    if np.any(arr <= 0.0):
        raise InvalidNetworkError(f"{name} must be strictly positive")
    return arr


@dataclass(frozen=True)
class LinearNetwork:
    """An ``(m+1)``-processor linear network with boundary load origination.

    Parameters
    ----------
    w:
        Unit processing times ``(w_0, ..., w_m)``; ``w[0]`` is the root.
    z:
        Unit communication times ``(z_1, ..., z_m)``; ``z[j-1]`` is the
        link from ``P_{j-1}`` to ``P_j``.  Must satisfy ``len(z) == len(w) - 1``.

    Examples
    --------
    >>> net = LinearNetwork(w=[1.0, 2.0, 3.0], z=[0.5, 0.25])
    >>> net.m
    2
    >>> net.size
    3
    """

    w: np.ndarray
    z: np.ndarray

    def __init__(self, w: Sequence[float], z: Sequence[float]) -> None:
        w_arr = _as_positive_array(w, "w")
        if w_arr.size == 1:
            z_arr = np.asarray(z, dtype=np.float64)
            if z_arr.size != 0:
                raise InvalidNetworkError("single-processor network takes no links")
        else:
            z_arr = _as_positive_array(z, "z")
        if z_arr.size != w_arr.size - 1:
            raise InvalidNetworkError(
                f"expected {w_arr.size - 1} links for {w_arr.size} processors, got {z_arr.size}"
            )
        w_arr.flags.writeable = False
        z_arr.flags.writeable = False
        object.__setattr__(self, "w", w_arr)
        object.__setattr__(self, "z", z_arr)

    @property
    def size(self) -> int:
        """Number of processors ``m + 1``."""
        return int(self.w.size)

    @property
    def m(self) -> int:
        """Index of the last processor (the paper's ``m``)."""
        return int(self.w.size) - 1

    def segment(self, start: int, stop: int | None = None) -> "LinearNetwork":
        """The sub-chain ``P_start .. P_stop`` viewed as a boundary-rooted
        linear network (used by the reduction of Fig. 3).

        ``stop`` is inclusive and defaults to the last processor.
        """
        if stop is None:
            stop = self.m
        if not (0 <= start <= stop <= self.m):
            raise InvalidNetworkError(f"invalid segment [{start}, {stop}] for m={self.m}")
        return LinearNetwork(self.w[start : stop + 1], self.z[start:stop])

    def with_rates(self, index: int, w_value: float) -> "LinearNetwork":
        """Copy of the network with ``w[index]`` replaced (used by bid
        sweeps, where an agent reports a rate different from its true one)."""
        w_new = self.w.copy()
        w_new[index] = w_value
        return LinearNetwork(w_new, self.z)

    def reversed(self) -> "LinearNetwork":
        """The same chain rooted at the opposite boundary."""
        return LinearNetwork(self.w[::-1].copy(), self.z[::-1].copy())

    def to_networkx(self):
        """Render the chain as a :class:`networkx.Graph` with ``w``/``z``
        attributes (handy for visualisation and structural checks)."""
        import networkx as nx

        graph = nx.Graph()
        for i, wi in enumerate(self.w):
            graph.add_node(i, w=float(wi), root=(i == 0))
        for j, zj in enumerate(self.z, start=1):
            graph.add_edge(j - 1, j, z=float(zj))
        return graph


@dataclass(frozen=True)
class BusNetwork:
    """A bus network: root plus ``n`` processors sharing one bus of unit
    communication time ``z`` (the setting of the authors' prior bus
    mechanism [14]).

    Attributes
    ----------
    w:
        Unit processing times ``(w_0, ..., w_n)``; ``w[0]`` is the root,
        which also computes.
    z:
        Unit communication time of the shared bus.
    """

    w: np.ndarray
    z: float

    def __init__(self, w: Sequence[float], z: float) -> None:
        w_arr = _as_positive_array(w, "w")
        if not (np.isfinite(z) and z > 0.0):
            raise InvalidNetworkError("bus communication time z must be positive")
        w_arr.flags.writeable = False
        object.__setattr__(self, "w", w_arr)
        object.__setattr__(self, "z", float(z))

    @property
    def size(self) -> int:
        return int(self.w.size)

    def as_star(self) -> "StarNetwork":
        """A bus is a star whose links all share the bus rate."""
        return StarNetwork(self.w, np.full(self.size - 1, self.z))


@dataclass(frozen=True)
class StarNetwork:
    """A single-level tree: root ``P_0`` connected to children ``P_1..P_n``
    by dedicated links, one-port distribution.

    Attributes
    ----------
    w:
        Unit processing times ``(w_0, ..., w_n)``; ``w[0]`` is the root.
    z:
        Unit link times ``(z_1, ..., z_n)`` for the child links.
    """

    w: np.ndarray
    z: np.ndarray

    def __init__(self, w: Sequence[float], z: Sequence[float]) -> None:
        w_arr = _as_positive_array(w, "w")
        if w_arr.size < 2:
            raise InvalidNetworkError("a star network needs at least one child")
        z_arr = _as_positive_array(z, "z")
        if z_arr.size != w_arr.size - 1:
            raise InvalidNetworkError(
                f"expected {w_arr.size - 1} child links, got {z_arr.size}"
            )
        w_arr.flags.writeable = False
        z_arr.flags.writeable = False
        object.__setattr__(self, "w", w_arr)
        object.__setattr__(self, "z", z_arr)

    @property
    def size(self) -> int:
        return int(self.w.size)

    @property
    def n_children(self) -> int:
        return int(self.w.size) - 1


@dataclass
class TreeNode:
    """A node of a :class:`TreeNetwork`.

    Attributes
    ----------
    w:
        Unit processing time of the processor at this node.
    link:
        Unit communication time of the link *from the parent* to this
        node (``None`` for the root).
    children:
        Child subtrees, served in list order by the one-port parent.
    label:
        Optional identifier used in traces.
    """

    w: float
    link: float | None = None
    children: list["TreeNode"] = field(default_factory=list)
    label: str | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.w) and self.w > 0.0):
            raise InvalidNetworkError("tree node w must be positive")
        if self.link is not None and not (np.isfinite(self.link) and self.link > 0.0):
            raise InvalidNetworkError("tree link z must be positive")

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children)

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)


@dataclass(frozen=True)
class TreeNetwork:
    """A rooted tree network (the setting of the authors' prior tree
    mechanism [9]); load originates at the root node."""

    root: TreeNode

    def __post_init__(self) -> None:
        if self.root.link is not None:
            raise InvalidNetworkError("tree root must not have a parent link")

    @property
    def size(self) -> int:
        return self.root.node_count()

    @classmethod
    def from_linear(cls, network: LinearNetwork) -> "TreeNetwork":
        """Embed a boundary-rooted linear network as a unary tree; the two
        solvers must agree on it (tested)."""
        node: TreeNode | None = None
        for i in range(network.m, -1, -1):
            link = float(network.z[i - 1]) if i >= 1 else None
            current = TreeNode(w=float(network.w[i]), link=link, label=f"P{i}")
            if node is not None:
                current.children.append(node)
            node = current
        assert node is not None
        return cls(root=node)

    @classmethod
    def from_star(cls, network: StarNetwork) -> "TreeNetwork":
        """Embed a star as a depth-one tree."""
        root = TreeNode(w=float(network.w[0]), label="P0")
        for i in range(1, network.size):
            root.children.append(
                TreeNode(w=float(network.w[i]), link=float(network.z[i - 1]), label=f"P{i}")
            )
        return cls(root=root)

    def preorder(self) -> "FlatTree":
        """The tree's nodes flattened in preorder (the root is node 0):
        the one node indexing the tree solver, the tree mechanism and the
        row engine share."""
        nodes: list[tuple[TreeNode, int]] = []  # (node, parent index)
        children: list[list[int]] = []
        stack = [(self.root, -1)]
        while stack:
            node, up = stack.pop()
            if up >= 0:
                children[up].append(len(nodes))
            stack.extend((child, len(nodes)) for child in reversed(node.children))
            nodes.append((node, up))
            children.append([])
        return FlatTree(
            w=np.array([node.w for node, _ in nodes], dtype=np.float64),
            link=np.array([np.nan if node.link is None else node.link for node, _ in nodes]),
            parent=np.array([up for _, up in nodes], dtype=np.intp),
            children=tuple(map(tuple, children)),
            labels=tuple(node.label for node, _ in nodes),
        )

    def to_networkx(self):
        """Render the tree as a :class:`networkx.DiGraph` rooted at node 0."""
        import networkx as nx

        flat = self.preorder()
        graph = nx.DiGraph()
        rows = zip(flat.w.tolist(), flat.labels, flat.parent.tolist(), flat.link.tolist())
        for index, (w, label, up, z) in enumerate(rows):
            graph.add_node(index, w=w, label=label)
            if up >= 0:
                graph.add_edge(up, index, z=z)
        return graph


@dataclass(frozen=True)
class FlatTree:
    """A :class:`TreeNetwork` flattened in preorder (see
    :meth:`TreeNetwork.preorder`); node 0 is the root.

    Attributes
    ----------
    w:
        Unit processing time per node.
    link:
        Unit time of the link from the node's parent (NaN at the root).
    parent:
        The parent's index (-1 at the root); every parent precedes its
        children, so a reversed sweep visits descendants first.
    children:
        Per node, its children's indices in service-list order.
    labels:
        Per node, its label.
    """

    w: np.ndarray
    link: np.ndarray
    parent: np.ndarray
    children: tuple[tuple[int, ...], ...]
    labels: tuple[str | None, ...]

    def __post_init__(self) -> None:
        for arr in (self.w, self.link, self.parent):
            arr.flags.writeable = False

    @property
    def size(self) -> int:
        return len(self.children)
