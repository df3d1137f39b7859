"""Phase IV payment structure (paper eqs. 4.3–4.11).

For a strategic processor :math:`P_j` (:math:`j \\ge 1`) the utility is

.. math::

    U_j = V_j(\\tilde\\alpha_j, \\tilde w_j) + Q_j
    \\qquad\\text{(4.4)}

with the valuation :math:`V_j = -\\tilde\\alpha_j \\tilde w_j` (4.5) —
the cost of the work actually performed — and the payment

.. math::

    Q_j = \\begin{cases} 0 & \\tilde\\alpha_j = 0 \\\\
          C_j + B_j & \\tilde\\alpha_j > 0 \\end{cases}
    \\qquad\\text{(4.6)}

where :math:`C_j = \\alpha_j\\tilde w_j + E_j` is the *compensation* (4.7),
:math:`E_j` the *recompense* for overload work (4.8), and the *bonus*

.. math::

    B_j = w_{j-1} - \\bar w_{j-1}\\big(\\alpha((w_{j-1},\\bar w_j)),
        (w_{j-1}, \\hat w_j)\\big)
    \\qquad\\text{(4.9)}

is the predecessor's bid minus the *evaluated* equivalent processing time
of the two-processor system :math:`\\{P_{j-1}, \\text{equiv } P_j\\}`:
the allocation is fixed from the bids, and the segment's makespan per
unit load is re-evaluated at :math:`P_j`'s *actual* performance
:math:`\\hat w_j` (4.10/4.11).  At a truthful bid and full-speed
execution the two branches of the max coincide and the bonus is largest
— that is the engine of strategyproofness (Lemma 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dlt imports nothing from mechanism)
    from repro.dlt.batch import BatchLinearSchedule

__all__ = [
    "valuation",
    "recompense",
    "compensation",
    "adjusted_equivalent_time",
    "bonus",
    "PaymentBreakdown",
    "payment_breakdown",
    "BatchPaymentBreakdown",
    "payment_breakdown_batch",
    "recommended_fine",
]


def valuation(computed_amount: float, actual_rate: float) -> float:
    """Valuation :math:`V_j = -\\tilde\\alpha_j \\tilde w_j` (eq. 4.5)."""
    return -computed_amount * actual_rate


def recompense(assigned: float, computed_amount: float, actual_rate: float) -> float:
    """Recompense :math:`E_j` (eq. 4.8): pay for overload work only.

    Zero when the processor computed less than assigned (it is *not*
    excused — compensation still covers the full assignment, and Phase III
    grievances handle the shortfall).
    """
    if computed_amount >= assigned:
        return (computed_amount - assigned) * actual_rate
    return 0.0


def compensation(assigned: float, computed_amount: float, actual_rate: float) -> float:
    """Compensation :math:`C_j = \\alpha_j \\tilde w_j + E_j` (eq. 4.7)."""
    return assigned * actual_rate + recompense(assigned, computed_amount, actual_rate)


def adjusted_equivalent_time(
    *,
    is_terminal: bool,
    bid: float,
    w_bar: float,
    alpha_hat: float,
    actual_rate: float,
) -> float:
    """The adjusted equivalent bid :math:`\\hat w_j` (eqs. 4.10/4.11).

    Parameters
    ----------
    is_terminal:
        ``True`` for :math:`P_m` (eq. 4.10: :math:`\\hat w_m = \\tilde w_m`).
    bid:
        The raw bid :math:`w_j`.
    w_bar:
        The Phase I equivalent bid :math:`\\bar w_j = \\hat\\alpha_j w_j`.
    alpha_hat:
        The Phase I local fraction :math:`\\hat\\alpha_j`.
    actual_rate:
        The metered actual unit time :math:`\\tilde w_j \\ge t_j`.

    Notes
    -----
    When :math:`P_j` runs no slower than it bid
    (:math:`\\tilde w_j < w_j`), the segment's equivalent time is
    unchanged (:math:`\\hat w_j = \\bar w_j`): running *faster* than bid
    earns nothing, so there is no reason to overbid and sandbag.  When it
    runs slower, its actual speed dominates the segment
    (:math:`\\hat w_j = \\hat\\alpha_j \\tilde w_j`), shrinking the bonus.
    """
    if is_terminal:
        return actual_rate
    if actual_rate >= bid:
        return alpha_hat * actual_rate
    return w_bar


def bonus(
    *,
    predecessor_bid: float,
    z_link: float,
    w_bar: float,
    w_hat: float,
) -> float:
    """The bonus :math:`B_j` (eq. 4.9).

    The two-processor system :math:`\\{P_{j-1}, \\text{equiv } P_j\\}` is
    allocated from the *bids* — local fraction

    .. math::

        \\hat\\alpha_{j-1} = \\frac{\\bar w_j + z_j}
                                  {w_{j-1} + \\bar w_j + z_j}

    — and its equivalent time is then *evaluated* at :math:`P_j`'s actual
    performance :math:`\\hat w_j` via eq. 2.3 (the max of the two
    finishing times, since the allocation is no longer optimal for the
    actual rates):

    .. math::

        \\bar w_{j-1}^{\\text{eval}} = \\max\\big(
            \\hat\\alpha_{j-1} w_{j-1},\\;
            (1-\\hat\\alpha_{j-1})(z_j + \\hat w_j)\\big).

    ``B_j = predecessor_bid - w_eval``; maximal exactly when the two
    branches coincide, i.e. when :math:`\\hat w_j` equals the bid-derived
    :math:`\\bar w_j` — truth-telling at full speed.
    """
    alpha_hat_prev = (w_bar + z_link) / (predecessor_bid + w_bar + z_link)
    w_eval = max(
        alpha_hat_prev * predecessor_bid,
        (1.0 - alpha_hat_prev) * (z_link + w_hat),
    )
    return predecessor_bid - w_eval


@dataclass(frozen=True)
class PaymentBreakdown:
    """Every term of one processor's Phase IV payment."""

    proc: int
    assigned: float  # alpha_j (load units, from the bid-derived schedule)
    computed: float  # alpha~_j actually computed
    actual_rate: float  # w~_j
    valuation: float  # V_j (4.5)
    compensation: float  # C_j (4.7), includes recompense
    recompense: float  # E_j (4.8)
    bonus: float  # B_j (4.9)
    payment: float  # Q_j (4.6)

    @property
    def utility_before_transfers(self) -> float:
        """``V_j + Q_j`` (eq. 4.4) — before grievance fines/rewards."""
        return self.valuation + self.payment


def payment_breakdown(
    *,
    proc: int,
    is_terminal: bool,
    assigned: float,
    computed: float,
    actual_rate: float,
    own_bid: float,
    own_w_bar: float,
    own_alpha_hat: float,
    predecessor_bid: float,
    z_link: float,
) -> PaymentBreakdown:
    """Assemble the full payment :math:`Q_j` for one processor.

    This is the computation each :math:`P_j` performs for itself in
    Phase IV (and that the root re-performs during audits).
    """
    v = valuation(computed, actual_rate)
    if computed <= 0.0:
        return PaymentBreakdown(
            proc=proc,
            assigned=assigned,
            computed=computed,
            actual_rate=actual_rate,
            valuation=v,
            compensation=0.0,
            recompense=0.0,
            bonus=0.0,
            payment=0.0,
        )
    e = recompense(assigned, computed, actual_rate)
    c = assigned * actual_rate + e
    w_hat = adjusted_equivalent_time(
        is_terminal=is_terminal,
        bid=own_bid,
        w_bar=own_w_bar,
        alpha_hat=own_alpha_hat,
        actual_rate=actual_rate,
    )
    b = bonus(
        predecessor_bid=predecessor_bid,
        z_link=z_link,
        w_bar=own_w_bar,
        w_hat=w_hat,
    )
    return PaymentBreakdown(
        proc=proc,
        assigned=assigned,
        computed=computed,
        actual_rate=actual_rate,
        valuation=v,
        compensation=c,
        recompense=e,
        bonus=b,
        payment=c + b,
    )


@dataclass(frozen=True)
class BatchPaymentBreakdown:
    """Phase IV payment terms for the ``m`` strategic agents of ``N``
    stacked networks; every field is an ``(N, m)`` array whose column
    ``j-1`` is agent :math:`P_j`'s term (same semantics as the scalar
    :class:`PaymentBreakdown` fields)."""

    assigned: np.ndarray
    computed: np.ndarray
    actual_rate: np.ndarray
    valuation: np.ndarray
    compensation: np.ndarray
    recompense: np.ndarray
    bonus: np.ndarray
    payment: np.ndarray

    @property
    def utility_before_transfers(self) -> np.ndarray:
        """``V_j + Q_j`` (eq. 4.4) — before grievance fines/rewards."""
        return self.valuation + self.payment


def payment_breakdown_batch(
    schedule: "BatchLinearSchedule",
    *,
    computed: np.ndarray | None = None,
    actual_rates: np.ndarray | None = None,
    assigned: np.ndarray | None = None,
    alpha_hat: np.ndarray | None = None,
    w_bar: np.ndarray | None = None,
) -> BatchPaymentBreakdown:
    """Assemble the Phase IV payments for every agent of every stacked
    network at once — the batch counterpart of :func:`payment_breakdown`.

    Parameters
    ----------
    schedule:
        A :class:`~repro.dlt.batch.BatchLinearSchedule` solved from the
        *bids* (``schedule.w[:, 1:]`` are the agent bids, ``w[:, 0]`` the
        obedient root).
    computed:
        Amounts actually computed, shape ``(N, m)``; defaults to the
        assigned fractions (obedient execution).
    actual_rates:
        Metered actual unit times :math:`\\tilde w_j`, shape ``(N, m)``;
        defaults to the bids (truthful full-speed execution).
    assigned / alpha_hat / w_bar:
        Optional overrides for the schedule-derived arrays.  The batched
        mechanism engine settles the provable payment and the audit
        recomputation in one call: it stacks its protocol-faithful
        quantities (the mechanism's interior ``alpha_hat`` division) and
        the audit's own (the left-associative ``alpha_hat`` expression)
        along a leading "sides" axis, ``(2, N, m)``.

    Every input broadcasts against the others, so each field has the
    broadcast shape of its own inputs (``computed``, ``actual_rate`` and
    ``valuation`` keep theirs).  The elementwise formulas are exactly
    eqs. 4.5–4.11; the last column is the terminal processor (eq. 4.10),
    every other column uses eq. 4.11.  Differential tests pin this
    against the scalar path bitwise.
    """
    bids = schedule.w[:, 1:]
    z = schedule.z
    assigned = np.asarray(assigned, dtype=np.float64) if assigned is not None else schedule.alpha[:, 1:]
    alpha_hat = np.asarray(alpha_hat, dtype=np.float64) if alpha_hat is not None else schedule.alpha_hat[:, 1:]
    w_bar = np.asarray(w_bar, dtype=np.float64) if w_bar is not None else schedule.w_eq[:, 1:]
    computed_arr = np.asarray(computed, dtype=np.float64) if computed is not None else assigned
    rates = np.asarray(actual_rates, dtype=np.float64) if actual_rates is not None else bids
    try:
        np.broadcast(assigned, alpha_hat, w_bar, computed_arr, rates, bids)
    except ValueError:
        raise ValueError(
            f"assigned/alpha_hat/w_bar/computed/actual_rates must broadcast against the "
            f"{bids.shape} schedule, got {assigned.shape}, {alpha_hat.shape}, {w_bar.shape}, "
            f"{computed_arr.shape} and {rates.shape}"
        ) from None

    v = -computed_arr * rates  # eq. 4.5
    e = np.where(computed_arr >= assigned, (computed_arr - assigned) * rates, 0.0)  # eq. 4.8
    c = assigned * rates + e  # eq. 4.7
    # Adjusted equivalent bid w_hat (eqs. 4.10/4.11): terminal column uses
    # the actual rate verbatim; interior columns keep w_bar unless the
    # processor ran slower than it bid.
    w_hat = np.where(rates >= bids, alpha_hat * rates, w_bar)
    w_hat[..., -1] = rates[..., -1]
    # Bonus (eq. 4.9): two-processor system {P_{j-1}, equiv P_j} allocated
    # from the bids, evaluated at the actual performance.
    predecessor_bid = schedule.w[:, :-1]
    alpha_hat_prev = (w_bar + z) / (predecessor_bid + w_bar + z)
    w_eval = np.maximum(
        alpha_hat_prev * predecessor_bid,
        (1.0 - alpha_hat_prev) * (z + w_hat),
    )
    b = predecessor_bid - w_eval
    participating = computed_arr > 0.0  # eq. 4.6: Q_j = 0 for alpha~_j = 0
    return BatchPaymentBreakdown(
        assigned=assigned,
        computed=computed_arr,
        actual_rate=rates,
        valuation=v,
        compensation=np.where(participating, c, 0.0),
        recompense=np.where(participating, e, 0.0),
        bonus=np.where(participating, b, 0.0),
        payment=np.where(participating, c + b, 0.0),
    )


def recommended_fine(
    bids: np.ndarray,
    *,
    total_load: float = 1.0,
    margin: float = 2.0,
    max_overcharge: float = 0.0,
) -> float:
    """A fine ``F`` "larger than any potential profits attainable by
    cheating" (paper, Phase I).

    Cheating profits are bounded by the largest payment any processor can
    extract: compensation is at most ``total_load * max(w)`` (computing
    the whole load at the slowest rate), the bonus is at most the largest
    predecessor bid, and a load-shedder pockets at most its own full
    compensation.  ``max_overcharge`` must bound any bill inflation the
    environment admits (the payment infrastructure rejects bills above
    the recomputable maximum plus this allowance).
    """
    if margin <= 0.0:
        raise ValueError(f"margin must be positive, got {margin}")
    bids_arr = np.asarray(bids, dtype=np.float64)
    if bids_arr.size == 0:
        raise ValueError("bids must be non-empty")
    bound = float(total_load * bids_arr.max() + bids_arr.max() + max_overcharge)
    return margin * bound
