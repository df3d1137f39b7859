"""Algorithm 1: LINEAR BOUNDARY-LINEAR.

Solves the divisible-load scheduling problem on a boundary-rooted linear
network by recursive reduction (Section 2 of the paper):

1. Backward pass (steps 1–6): starting from the terminal ``P_m``
   (``alpha_hat_m = 1``, ``w_bar_m = w_m``), repeatedly collapse the two
   processors farthest from the root with

   .. math::

       \\hat\\alpha_i = \\frac{\\bar w_{i+1} + z_{i+1}}
                             {w_i + \\bar w_{i+1} + z_{i+1}}
       \\qquad\\text{(eq. 2.7)},
       \\qquad \\bar w_i = \\hat\\alpha_i w_i \\text{ (eq. 2.4)}.

2. Forward pass (steps 7–10): unroll the local fractions into global
   fractions ``alpha_i = D_i * alpha_hat_i`` with
   ``D_i = prod_{k<i}(1 - alpha_hat_k)`` (eqs. 2.5/2.6).

The backward pass is a genuine scalar recurrence, so it is a Python loop
over ``m`` steps; the forward pass is vectorized with ``cumprod``.  A
straight-from-the-paper reference implementation is kept alongside and the
two are checked against each other by property tests.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.allocation import LinearSchedule
from repro.dlt.timing import finishing_times
from repro.network.topology import LinearNetwork

__all__ = [
    "solve_linear_boundary",
    "equivalent_time",
    "phase1_bids",
    "backward_pass",
    "alpha_from_alpha_hat",
]


def backward_pass(w: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The backward reduction recurrence (Algorithm 1 steps 1–6) as an
    array kernel.

    Accepts ``w`` of shape ``(..., m+1)`` and ``z`` of shape ``(..., m)``
    with arbitrary (matching) leading batch dimensions and returns
    ``(alpha_hat, w_eq)`` of shape ``(..., m+1)``.  The recurrence is
    inherently sequential in ``m``, so the loop runs over the chain axis;
    every step is elementwise over the batch axes, which is what makes
    :mod:`repro.dlt.batch` fast.  The arithmetic per element is identical
    to the scalar path, so batched and scalar results agree bitwise.
    """
    w_arr = np.asarray(w, dtype=np.float64)
    z_arr = np.asarray(z, dtype=np.float64)
    m = w_arr.shape[-1] - 1
    alpha_hat = np.empty_like(w_arr)
    w_eq = np.empty_like(w_arr)
    alpha_hat[..., m] = 1.0
    prev = w_eq[..., m]
    prev[...] = w_arr[..., m]
    for i in range(m - 1, -1, -1):
        tail = prev + z_arr[..., i]
        w_i = w_arr[..., i]
        hat = np.divide(tail, w_i + tail, out=alpha_hat[..., i])
        prev = np.multiply(hat, w_i, out=w_eq[..., i])
    return alpha_hat, w_eq


def phase1_bids(network: LinearNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The backward reduction pass (Algorithm 1 steps 1–6).

    Returns ``(alpha_hat, w_eq)`` where ``w_eq[i]`` is the equivalent
    processing time :math:`\\bar w_i` of the collapsed segment
    ``P_i .. P_m``.  This is exactly the computation each processor
    performs locally in Phase I of the DLS-LBL mechanism, evaluated here
    for the whole chain at once.
    """
    m = network.m
    # The recurrence is inherently sequential; numpy scalar indexing in a
    # tight loop is slower than plain floats (measured — see the P1
    # benchmark), so the single-network loop runs on Python lists and only
    # the forward pass is vectorized.  The batched kernel
    # (:func:`backward_pass`) performs the same IEEE operations per
    # element, so the two paths agree bitwise (differential-tested).
    w = network.w.tolist()
    z = network.z.tolist()
    alpha_hat = [0.0] * (m + 1)
    w_eq = [0.0] * (m + 1)
    alpha_hat[m] = 1.0
    w_eq[m] = w[m]
    prev = w[m]
    for i in range(m - 1, -1, -1):
        tail = prev + z[i]
        hat = tail / (w[i] + tail)
        alpha_hat[i] = hat
        prev = hat * w[i]
        w_eq[i] = prev
    return np.asarray(alpha_hat), np.asarray(w_eq)


def alpha_from_alpha_hat(alpha_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward unrolling pass (Algorithm 1 steps 7–10), vectorized.

    Returns ``(alpha, received)`` where ``received[i]`` is ``D_i``, the
    fraction of the original load arriving at ``P_i``.  Operates on the
    last axis, so stacked ``(..., m+1)`` inputs unroll all instances at
    once.
    """
    hat = np.asarray(alpha_hat, dtype=np.float64)
    received = np.empty_like(hat)
    received[..., 0] = 1.0
    shares = np.subtract(1.0, hat[..., :-1], out=received[..., 1:])
    np.cumprod(shares, axis=-1, out=shares)
    return received * hat, received


def solve_linear_boundary(network: LinearNetwork) -> LinearSchedule:
    """Solve LINEAR BOUNDARY-LINEAR for ``network`` (Algorithm 1).

    Returns the optimal :class:`~repro.dlt.allocation.LinearSchedule`; by
    Theorem 2.1 every processor participates and all finishing times equal
    the makespan ``w_eq[0]``.

    Examples
    --------
    >>> net = LinearNetwork(w=[2.0, 2.0], z=[1.0])
    >>> sched = solve_linear_boundary(net)
    >>> float(round(sched.alpha[0], 4))
    0.6
    >>> float(round(sched.makespan, 4))
    1.2
    """
    from repro.obs.metrics import get_registry

    get_registry().inc("dlt.scalar.linear_solves")
    alpha_hat, w_eq = phase1_bids(network)
    alpha, received = alpha_from_alpha_hat(alpha_hat)
    return LinearSchedule(
        network=network,
        alpha=alpha,
        alpha_hat=alpha_hat,
        received=received,
        w_eq=w_eq,
        makespan=float(w_eq[0]),
    )


def equivalent_time(network: LinearNetwork) -> float:
    """Equivalent processing time :math:`\\bar w_0` of the whole chain —
    the time the collapsed single processor takes per unit load
    (eq. 2.3/2.4)."""
    _, w_eq = phase1_bids(network)
    return float(w_eq[0])


def solve_linear_boundary_reference(network: LinearNetwork) -> LinearSchedule:
    """Literal transcription of Algorithm 1 (pure Python, no vectorization).

    Kept as an executable specification; tests assert it agrees with
    :func:`solve_linear_boundary` to machine precision.
    """
    w = [float(x) for x in network.w]
    z = [float(x) for x in network.z]
    m = network.m
    alpha_hat = [0.0] * (m + 1)
    w_bar = [0.0] * (m + 1)
    alpha_hat[m] = 1.0
    w_bar[m] = w[m]
    for i in range(m - 1, -1, -1):
        alpha_hat[i] = (w_bar[i + 1] + z[i]) / (w[i] + w_bar[i + 1] + z[i])
        w_bar[i] = alpha_hat[i] * w[i]
    alpha = [0.0] * (m + 1)
    received = [0.0] * (m + 1)
    d = 1.0
    for i in range(m + 1):
        received[i] = d
        alpha[i] = d * alpha_hat[i]
        d = d * (1.0 - alpha_hat[i])
    return LinearSchedule(
        network=network,
        alpha=np.array(alpha),
        alpha_hat=np.array(alpha_hat),
        received=np.array(received),
        w_eq=np.array(w_bar),
        makespan=w_bar[0],
    )


def verify_schedule(schedule: LinearSchedule, *, rtol: float = 1e-9) -> bool:
    """Sanity-check a schedule against the timing model: all finishing
    times must equal the makespan (Theorem 2.1 signature)."""
    t = finishing_times(schedule.network, schedule.alpha)
    return bool(np.allclose(t, schedule.makespan, rtol=rtol, atol=rtol * max(1.0, schedule.makespan)))
