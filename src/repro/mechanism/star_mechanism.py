"""DLS-SL: a strategyproof mechanism for star (and bus) networks.

The paper's related work anchors DLS-LBL in a family of mechanisms the
authors built for bus [14] and tree [9] networks.  This module provides
that family's star/bus member as a comparator, built on the
*marginal-contribution* generalization of the DLS-LBL bonus:

.. math::

    B_i = T(\\mathbf{w}_{-i}) - T_{\\text{eval}}(\\mathbf{w}, \\tilde w_i)

where :math:`T(\\mathbf{w}_{-i})` is the optimal star makespan *without*
child ``i`` (computed from the others' bids) and :math:`T_{\\text{eval}}`
re-evaluates the bid-derived allocation at ``i``'s *actual* metered rate.
For the two-processor chain this specializes to eq. 4.9's
``w_{j-1} - w_bar_{j-1}(eval)`` exactly.

Strategyproofness follows from the same optimality argument as
Lemma 5.3: the bid-derived allocation evaluated at the true rates is
weakly worse than the truth-derived allocation evaluated at the true
rates, so misreporting can only shrink the bonus; running slower than
capacity shrinks it further.  Voluntary participation follows from
monotonicity (removing a processor never helps).  Both are exercised
empirically by experiment X5.

The protocol is simpler than the chain's: the root communicates with
every child directly, so there is no relaying to verify and no load to
shed onto a neighbour.  The deviations that remain — contradictory bids,
under-computation (abandoning assigned work, caught by the meter),
overcharging — are handled with the same fines and audits as DLS-LBL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.crypto.signing import sign
from repro.dlt.star import StarSchedule, solve_star, star_finishing_times
from repro.exceptions import InvalidNetworkError
from repro.mechanism.audit import Auditor
from repro.mechanism.protocol import ProtocolOutcome, RunBooks, ScalarMechanism
from repro.network.topology import BusNetwork, StarNetwork
from repro.obs.tracer import Tracer
from repro.protocol.grievance import levy
from repro.protocol.messages import bid_payload
from repro.protocol.meter import TamperProofMeter

__all__ = ["StarMechanism", "StarOutcome", "star_bonus"]

#: Meter slack when checking that assigned work was completed.
_WORK_TOL = 1e-9


def star_bonus(
    network: StarNetwork,
    child: int,
    *,
    actual_rate: float,
    schedule: StarSchedule,
) -> float:
    """The marginal-contribution bonus of ``child`` (1-based index).

    ``network`` carries the *bids* and ``schedule`` is its solved star;
    ``actual_rate`` is the child's metered rate.  Both terms are per
    unit load.
    """
    return _makespan_without(network, child) - _evaluated_makespan(
        network, child, actual_rate, schedule
    )


def _makespan_without(network: StarNetwork, child: int) -> float:
    """``T(w_{-i})``: the optimal makespan of the star over the other
    children (the root alone when ``child`` was the only one)."""
    if network.n_children == 1:
        return float(network.w[0])
    keep = [i for i in range(1, network.size) if i != child]
    reduced = StarNetwork(
        np.concatenate(([network.w[0]], network.w[keep])),
        network.z[np.array(keep) - 1],
    )
    return solve_star(reduced).makespan


def _evaluated_makespan(
    network: StarNetwork, child: int, actual_rate: float, schedule: StarSchedule
) -> float:
    """The bid-derived allocation with ``child``'s slot re-timed at its
    actual rate."""
    w_eval = network.w.copy()
    w_eval[child] = actual_rate
    times = star_finishing_times(StarNetwork(w_eval, network.z), schedule.alpha, schedule.order)
    return float(times.max())


@dataclass(kw_only=True)
class StarOutcome(ProtocolOutcome):
    """Everything a star-mechanism run produced; ``bids`` are
    ``(w_0, w_1..w_n)`` with ``w_0`` the obedient root's rate, and
    ``order`` is the children's service order.

    A root-detected abort (contradictory bids) has ``completed=False``
    but no ``aborted_phase`` and no adjudication: the root fines the
    child itself, with no grievance to settle.
    """

    order: tuple[int, ...] = ()


class StarMechanism(ScalarMechanism):
    """One configured instance of the star/bus mechanism.

    Parameters
    ----------
    link_rates:
        Child link times ``z_1 .. z_n`` (a scalar replicates to all
        children — the bus case).
    root_rate:
        The obedient root's unit processing time.
    agents:
        Strategic agents for children ``1 .. n``.

    When a tracer is attached the run is wrapped in a ``run`` span
    (``topology="star"``); fines, audits, and ledger transfers emit the
    same event kinds as DLS-LBL.  Star runs count under
    ``mechanism.star_runs`` to keep the chain-mechanism run counter
    untouched.
    """

    outcome_type = StarOutcome
    runs_counter = "mechanism.star_runs"
    perf_name = "mechanism_star"

    def __init__(
        self,
        link_rates: Sequence[float] | float,
        root_rate: float,
        agents: Sequence[ProcessorAgent],
        *,
        fine: float | None = None,
        audit_probability: float = 0.25,
        total_load: float = 1.0,
        rng: np.random.Generator | None = None,
        key_seed: bytes | None = b"dls-sl",
        tracer: Tracer | None = None,
    ) -> None:
        n = len(agents)
        if n == 0:
            raise InvalidNetworkError("need at least one child")
        self._configure(
            agents, list(range(1, n + 1)), root_rate,
            fine=fine, total_load=total_load, tracer=tracer,
        )
        if np.isscalar(link_rates):
            z = np.full(n, float(link_rates))
        else:
            z = np.asarray(link_rates, dtype=np.float64)
        if z.size != n:
            raise InvalidNetworkError(f"expected {n} links, got {z.size}")
        self.z = z
        self.n = n
        self._configure_audits(audit_probability, rng, key_seed)

    def _run_attrs(self) -> dict[str, Any]:
        return {
            "topology": "star",
            "n": self.n,
            "fine": self.fine,
            "audit_probability": self.audit_probability,
            "total_load": self.total_load,
        }

    def _run_protocol(self, metrics) -> StarOutcome:
        n = self.n
        books = RunBooks(self, metrics, n + 1)
        # A child's equivalent bid is its bid: there is nothing below it.
        books.w_bar = bids = books.bids
        meter = TamperProofMeter(self._keys[0])

        # Phase I: children bid directly to the root (contradictions are
        # detected by the root itself, which needs no reward).
        for i in range(1, n + 1):
            bid = float(bids[i])
            sign(self._keys[i], bid_payload(i, bid))
            second = self.agents[i].phase1_second_bid(bid)
            if second is not None and second != bid:
                levy(
                    books.ledger, books.metrics, i, self.fine, "contradictory bids (root-detected)",
                    source="root", reason="contradictory bids", tracer=self.tracer,
                )
                return self._aborted(None, books)

        # Schedule from bids: children served in non-decreasing link time
        # (the public, bid-independent optimal order).
        star = StarNetwork(bids, self.z)
        schedule = solve_star(star, order="by-link")
        assigned = schedule.alpha * self.total_load

        # Phase III: children compute (no relaying — nothing to shed onto).
        actual_rates = self._execution_rates(n + 1)
        computed = assigned.copy()
        for i in range(1, n + 1):
            # choose_retention lets an agent abandon work; there is no
            # downstream victim, so the meter itself is the detector.
            kept = self.agents[i].choose_retention(float(assigned[i]), float(assigned[i]), 0.0)
            computed[i] = float(np.clip(kept, 0.0, assigned[i]))
        for i in range(1, n + 1):
            meter.record(i, float(actual_rates[i]), float(computed[i]))
        for i in range(1, n + 1):
            if computed[i] < assigned[i] - _WORK_TOL:
                levy(
                    books.ledger, books.metrics, i, self.fine,
                    "abandoned assigned work (meter-detected)",
                    source="meter", reason="abandoned assigned work", tracer=self.tracer,
                )

        # Phase IV: payments.
        books.ledger.pay(0, float(assigned[0]) * self.root_rate, "root reimbursement")
        auditor = Auditor(self.audit_probability, self.fine, self.rng)
        correct_q = np.zeros(n + 1)
        billed_q = np.zeros(n + 1)
        for i in range(1, n + 1):
            # The bonus (star_bonus): T(w_{-i}), solved once for both the
            # bill and its audit, minus the re-timed allocation.
            t_without = None
            if computed[i] <= 0.0:
                correct = 0.0
            else:
                t_without = _makespan_without(star, i)
                rate = float(actual_rates[i])
                bonus = t_without - _evaluated_makespan(star, i, rate, schedule)
                correct = float(assigned[i]) * rate + bonus
            correct_q[i] = correct
            bill = self.agents[i].phase4_bill(correct)
            billed_q[i] = bill
            self._bill(books, i, bill)

            def recompute(_proof, i=i, t_without=t_without):
                # The root recomputes from its own records: the signed
                # bids and its meter.  (The star has no relayed evidence,
                # so the proof object is the root's own state.)
                reading = meter.reading_for(i)
                if reading is None:
                    return None, "no meter record"
                if reading.computed_amount <= 0.0:
                    return 0.0, "computed nothing"
                bonus = t_without - _evaluated_makespan(star, i, reading.actual_rate, schedule)
                return (
                    float(assigned[i]) * reading.actual_rate + bonus,
                    "recomputed from root records",
                )

            self._record_audit(books, auditor.audit(i, bill, object(), recompute))

        finish = star_finishing_times(StarNetwork(actual_rates, self.z), schedule.alpha, schedule.order)
        makespan = float(finish.max() * self.total_load)
        return self._completed(
            books, assigned, computed, actual_rates, correct_q, billed_q, makespan,
            order=schedule.order,
        )

    @classmethod
    def for_bus(
        cls,
        bus: BusNetwork,
        agents: Sequence[ProcessorAgent],
        **kwargs,
    ) -> "StarMechanism":
        """The bus special case (the setting of [14]): every child shares
        the bus rate."""
        return cls(bus.z, float(bus.w[0]), agents, **kwargs)
