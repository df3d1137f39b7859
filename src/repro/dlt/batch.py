"""Vectorized batch solving: N networks in one numpy pass.

The experiment suite's dominant cost is solving many *independent*
divisible-load instances — bid sweeps, Monte-Carlo workloads, scaling
studies (cf. Gallet, Robert & Vivien's multi-load linear-network
scheduling, arXiv:0706.4038).  Solving them one at a time through the
scalar recurrences wastes the fact that the backward pass is sequential
only along the *chain*: across instances every step is elementwise.  This
module stacks ``w``/``z`` into ``(N, m+1)`` / ``(N, m)`` arrays and runs
the Algorithm 1 and star recurrences for all ``N`` instances at once via
the array kernels exposed by :mod:`repro.dlt.linear` and
:mod:`repro.dlt.star`.

The batched kernels perform the same IEEE-754 operations per element as
the scalar solvers, so results agree bitwise with
:func:`~repro.dlt.linear.solve_linear_boundary` /
:func:`~repro.dlt.star.solve_star` (differential-tested to 1e-9 and in
practice exactly).

A small LRU cache (:func:`solve_linear_cached`) keyed on canonicalized
network parameters serves repeated instances — bid sweeps re-solve the
same chain with one entry perturbed, and workload replays hit identical
networks — without the caller having to manage identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.dlt.allocation import LinearSchedule, StarSchedule
from repro.dlt.linear import alpha_from_alpha_hat, backward_pass, solve_linear_boundary
from repro.dlt.star import star_alpha_kernel
from repro.exceptions import InvalidNetworkError
from repro.network.topology import BusNetwork, LinearNetwork, StarNetwork
from repro.obs.metrics import get_registry
from repro.obs.perf import span as perf_span

__all__ = [
    "BatchLinearSchedule",
    "BatchStarSchedule",
    "stack_networks",
    "solve_linear_batch",
    "solve_star_batch",
    "solve_many",
    "solve_linear_cached",
    "linear_cache_info",
    "linear_cache_clear",
]


def _validate_stack(w: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w_arr = np.ascontiguousarray(w, dtype=np.float64)
    z_arr = np.ascontiguousarray(z, dtype=np.float64)
    if w_arr.ndim != 2:
        raise InvalidNetworkError(f"stacked w must be 2-D (N, m+1), got shape {w_arr.shape}")
    if w_arr.shape[1] < 1 or w_arr.shape[0] < 1:
        raise InvalidNetworkError(f"stacked w must be non-empty, got shape {w_arr.shape}")
    if z_arr.ndim != 2 or z_arr.shape != (w_arr.shape[0], w_arr.shape[1] - 1):
        raise InvalidNetworkError(
            f"stacked z must have shape {(w_arr.shape[0], w_arr.shape[1] - 1)}, got {z_arr.shape}"
        )
    # Valid iff every rate lies in (0, inf): a NaN fails both bounds.
    if 0.0 < w_arr.min() and w_arr.max() < np.inf and (
        not z_arr.size or (0.0 < z_arr.min() and z_arr.max() < np.inf)
    ):
        return w_arr, z_arr
    if not (np.all(np.isfinite(w_arr)) and np.all(np.isfinite(z_arr))):
        raise InvalidNetworkError("stacked rates must be finite")
    raise InvalidNetworkError("stacked rates must be strictly positive")


@dataclass(frozen=True)
class BatchLinearSchedule:
    """Optimal schedules for ``N`` stacked boundary-rooted linear networks.

    Every array is stacked along axis 0; row ``i`` holds exactly what the
    scalar :class:`~repro.dlt.allocation.LinearSchedule` would hold for
    network ``i``.

    Attributes
    ----------
    w, z:
        The stacked network parameters, shapes ``(N, m+1)`` and ``(N, m)``.
    alpha, alpha_hat, received, w_eq:
        Stacked schedule quantities, shape ``(N, m+1)``.
    makespan:
        Per-instance makespans, shape ``(N,)``.
    """

    w: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    alpha_hat: np.ndarray
    received: np.ndarray
    w_eq: np.ndarray
    makespan: np.ndarray

    @property
    def n_networks(self) -> int:
        return int(self.w.shape[0])

    @property
    def size(self) -> int:
        """Processors per instance (``m + 1``)."""
        return int(self.w.shape[1])

    def __len__(self) -> int:
        return self.n_networks

    def schedule(self, i: int, *, network: LinearNetwork | None = None) -> LinearSchedule:
        """Row ``i`` unstacked into a scalar :class:`LinearSchedule`."""
        net = network if network is not None else LinearNetwork(self.w[i], self.z[i])
        return LinearSchedule(
            network=net,
            alpha=self.alpha[i],
            alpha_hat=self.alpha_hat[i],
            received=self.received[i],
            w_eq=self.w_eq[i],
            makespan=float(self.makespan[i]),
        )


@dataclass(frozen=True)
class BatchStarSchedule:
    """Optimal schedules for ``N`` stacked star networks.

    Attributes
    ----------
    w, z:
        Stacked parameters, shapes ``(N, n+1)`` and ``(N, n)``.
    alpha:
        Stacked allocations (root first), shape ``(N, n+1)``.
    orders:
        Per-instance service orders (child indices ``1..n``), ``(N, n)``.
    makespan:
        Per-instance makespans, shape ``(N,)``.
    """

    w: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    orders: np.ndarray
    makespan: np.ndarray

    @property
    def n_networks(self) -> int:
        return int(self.w.shape[0])

    def __len__(self) -> int:
        return self.n_networks

    def schedule(self, i: int, *, network: StarNetwork | None = None) -> StarSchedule:
        """Row ``i`` unstacked into a scalar :class:`StarSchedule`."""
        net = network if network is not None else StarNetwork(self.w[i], self.z[i])
        return StarSchedule(
            network=net,
            alpha=self.alpha[i],
            order=tuple(int(c) for c in self.orders[i]),
            makespan=float(self.makespan[i]),
        )


def stack_networks(
    networks: Sequence[LinearNetwork | StarNetwork],
) -> tuple[np.ndarray, np.ndarray]:
    """Stack same-size networks into ``(w, z)`` arrays for the batch kernels.

    Raises :class:`InvalidNetworkError` when the sequence is empty or the
    sizes disagree (batching requires a rectangular stack; group by size
    first — :func:`solve_many` does exactly that).
    """
    nets = list(networks)
    if not nets:
        raise InvalidNetworkError("cannot stack an empty network sequence")
    size = nets[0].size
    if any(net.size != size for net in nets):
        raise InvalidNetworkError("all stacked networks must have the same size")
    w = np.stack([net.w for net in nets])
    z = (
        np.stack([net.z for net in nets])
        if size > 1
        else np.empty((len(nets), 0), dtype=np.float64)
    )
    return w, z


def solve_linear_batch(w: np.ndarray, z: np.ndarray) -> BatchLinearSchedule:
    """Solve Algorithm 1 for ``N`` stacked chains at once.

    Parameters
    ----------
    w:
        Stacked processing times, shape ``(N, m+1)``.
    z:
        Stacked link times, shape ``(N, m)``.

    Examples
    --------
    >>> batch = solve_linear_batch([[2.0, 2.0], [2.0, 2.0]], [[1.0], [1.0]])
    >>> [float(round(t, 4)) for t in batch.makespan]
    [1.2, 1.2]
    """
    w_arr, z_arr = _validate_stack(np.atleast_2d(w), np.atleast_2d(np.asarray(z, dtype=np.float64)))
    registry = get_registry()
    registry.inc("dlt.batch.linear_calls")
    registry.inc("dlt.batch.linear_instances", w_arr.shape[0])
    with perf_span("solve.batch_linear"):
        alpha_hat, w_eq = backward_pass(w_arr, z_arr)
        alpha, received = alpha_from_alpha_hat(alpha_hat)
    return BatchLinearSchedule(
        w=w_arr,
        z=z_arr,
        alpha=alpha,
        alpha_hat=alpha_hat,
        received=received,
        w_eq=w_eq,
        makespan=w_eq[:, 0].copy(),
    )


def solve_star_batch(
    w: np.ndarray, z: np.ndarray, *, orders: np.ndarray | None = None
) -> BatchStarSchedule:
    """Solve the star problem for ``N`` stacked instances at once.

    Parameters
    ----------
    w:
        Stacked processing times (root first), shape ``(N, n+1)``.
    z:
        Stacked child-link times, shape ``(N, n)``.
    orders:
        Optional per-instance service orders (child indices ``1..n``),
        shape ``(N, n)``.  Defaults to the optimal non-decreasing-link
        order, computed per row exactly as :func:`~repro.dlt.star.solve_star`
        does (stable argsort).
    """
    w_arr, z_arr = _validate_stack(np.atleast_2d(w), np.atleast_2d(np.asarray(z, dtype=np.float64)))
    if w_arr.shape[1] < 2:
        raise InvalidNetworkError("a star batch needs at least one child per instance")
    if orders is None:
        cols = np.argsort(z_arr, axis=-1, kind="stable") + 1
    else:
        cols = np.asarray(orders, dtype=np.intp)
        if cols.shape != z_arr.shape:
            raise InvalidNetworkError(
                f"orders must have shape {z_arr.shape}, got {cols.shape}"
            )
        if not np.array_equal(np.sort(cols, axis=-1), np.arange(1, w_arr.shape[1])[None, :].repeat(len(cols), 0)):
            raise InvalidNetworkError("each order row must be a permutation of 1..n")
    registry = get_registry()
    registry.inc("dlt.batch.star_calls")
    registry.inc("dlt.batch.star_instances", w_arr.shape[0])
    with perf_span("solve.batch_star"):
        alpha = star_alpha_kernel(w_arr, z_arr, cols)
    return BatchStarSchedule(
        w=w_arr,
        z=z_arr,
        alpha=alpha,
        orders=cols,
        makespan=alpha[:, 0] * w_arr[:, 0],
    )


def solve_many(
    networks: Iterable[LinearNetwork | StarNetwork | BusNetwork],
) -> list[LinearSchedule | StarSchedule]:
    """Solve a heterogeneous collection of networks, batching where possible.

    Groups instances by architecture and size, runs one batched solve per
    group, and returns scalar schedules in the input order — a drop-in
    replacement for ``[solve(net) for net in networks]`` on linear, star
    and bus networks.
    """
    nets = list(networks)
    groups: dict[tuple[str, int], list[int]] = {}
    stars: dict[int, StarNetwork] = {}
    for idx, net in enumerate(nets):
        if isinstance(net, LinearNetwork):
            groups.setdefault(("linear", net.size), []).append(idx)
        elif isinstance(net, (StarNetwork, BusNetwork)):
            stars[idx] = net.as_star() if isinstance(net, BusNetwork) else net
            groups.setdefault(("star", stars[idx].size), []).append(idx)
        else:
            raise TypeError(f"solve_many cannot batch {type(net).__name__}")
    out: list[LinearSchedule | StarSchedule | None] = [None] * len(nets)
    for (kind, _size), indices in groups.items():
        if kind == "linear":
            w, z = stack_networks([nets[i] for i in indices])
            batch = solve_linear_batch(w, z)
            for row, i in enumerate(indices):
                out[i] = batch.schedule(row, network=nets[i])
        else:
            w, z = stack_networks([stars[i] for i in indices])
            batch = solve_star_batch(w, z)
            for row, i in enumerate(indices):
                out[i] = batch.schedule(row, network=stars[i])
    return out  # type: ignore[return-value]


@lru_cache(maxsize=4096)
def _solve_linear_from_key(w_bytes: bytes, z_bytes: bytes) -> LinearSchedule:
    w = np.frombuffer(w_bytes, dtype=np.float64)
    z = np.frombuffer(z_bytes, dtype=np.float64)
    return solve_linear_boundary(LinearNetwork(w, z))


def solve_linear_cached(network: LinearNetwork) -> LinearSchedule:
    """LRU-cached Algorithm 1 solve.

    The key is the canonicalized parameter vector (float64 bytes of
    ``w`` and ``z``), so structurally identical networks hit the cache
    regardless of object identity.  Note the returned schedule's
    ``network`` is the cached reconstruction, not the argument object.
    """
    return _solve_linear_from_key(network.w.tobytes(), network.z.tobytes())


def linear_cache_info():
    """``functools.lru_cache`` statistics for :func:`solve_linear_cached`."""
    return _solve_linear_from_key.cache_info()


def linear_cache_clear() -> None:
    """Drop all cached :func:`solve_linear_cached` entries."""
    _solve_linear_from_key.cache_clear()
