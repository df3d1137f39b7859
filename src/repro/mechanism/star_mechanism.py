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

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signing import SignedMessage, sign
from repro.dlt.star import solve_star, star_finishing_times
from repro.exceptions import InvalidNetworkError
from repro.mechanism.audit import AuditRecord, Auditor
from repro.mechanism.dls_lbl import AgentReport
from repro.mechanism.ledger import PaymentLedger
from repro.mechanism.payments import recommended_fine
from repro.network.topology import BusNetwork, StarNetwork
from repro.obs.metrics import get_registry
from repro.obs.perf import span as perf_span
from repro.obs.tracer import Tracer
from repro.protocol.grievance import Adjudication
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
    order: Sequence[int],
) -> float:
    """The marginal-contribution bonus of ``child`` (1-based index).

    ``network`` carries the *bids*; ``actual_rate`` is the child's
    metered rate.  Both terms are per unit load.
    """
    # T without the child: the star over the remaining children (or the
    # root alone when it was the only child).
    if network.n_children == 1:
        t_without = float(network.w[0])
    else:
        keep = [i for i in range(1, network.size) if i != child]
        reduced = StarNetwork(
            np.concatenate(([network.w[0]], network.w[keep])),
            network.z[np.array(keep) - 1],
        )
        t_without = solve_star(reduced).makespan

    # T evaluated: bid-derived allocation, child's slot re-timed at its
    # actual rate.
    sched = solve_star(network, order=tuple(order))
    w_eval = network.w.copy()
    w_eval[child] = actual_rate
    eval_net = StarNetwork(w_eval, network.z)
    times = star_finishing_times(eval_net, sched.alpha, sched.order)
    t_eval = float(times.max())
    return t_without - t_eval


@dataclass
class StarOutcome:
    """Everything a star-mechanism run produced."""

    completed: bool
    bids: np.ndarray  # (w_0, w_1..w_n); w_0 is the obedient root's rate
    order: tuple[int, ...]
    assigned: np.ndarray
    computed: np.ndarray
    actual_rates: np.ndarray
    adjudications: list[Adjudication]
    audits: list[AuditRecord]
    ledger: PaymentLedger
    reports: dict[int, AgentReport]
    makespan: float | None

    def utility(self, index: int) -> float:
        if index == 0:
            return 0.0
        return self.reports[index].utility


class StarMechanism:
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
    """

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
        agents_sorted = sorted(agents, key=lambda a: a.index)
        n = len(agents_sorted)
        if n == 0:
            raise InvalidNetworkError("need at least one child")
        if [a.index for a in agents_sorted] != list(range(1, n + 1)):
            raise InvalidNetworkError(f"agents must cover indices 1..{n}")
        if np.isscalar(link_rates):
            z = np.full(n, float(link_rates))
        else:
            z = np.asarray(link_rates, dtype=np.float64)
        if z.size != n:
            raise InvalidNetworkError(f"expected {n} links, got {z.size}")
        self.z = z
        self.n = n
        self.root_rate = float(root_rate)
        self.agents = {a.index: a for a in agents_sorted}
        self.total_load = float(total_load)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.audit_probability = float(audit_probability)
        self.registry, keys = KeyRegistry.for_processors(self.n + 1, seed=key_seed)
        self._keys: dict[int, KeyPair] = {pair.owner: pair for pair in keys}
        true_rates = np.array([self.root_rate] + [a.true_rate for a in agents_sorted])
        self.fine = (
            float(fine)
            if fine is not None
            else recommended_fine(true_rates, total_load=self.total_load, max_overcharge=10.0 * true_rates.max())
        )
        self.tracer = tracer

    def _span(self, kind: str, **attrs):
        """A tracer span, or a no-op context when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(kind, **attrs)

    def run(self) -> StarOutcome:
        """Execute the mechanism and return the outcome.

        When a tracer is attached the run is wrapped in a ``run`` span
        (``topology="star"``); fines, audits, and ledger transfers emit
        the same event kinds as DLS-LBL.  Star runs count under
        ``mechanism.star_runs`` to keep the chain-mechanism run counter
        untouched.
        """
        registry = get_registry()
        registry.inc("mechanism.star_runs")
        with perf_span("mechanism_star"), self._span(
            "run",
            topology="star",
            n=self.n,
            fine=self.fine,
            audit_probability=self.audit_probability,
            total_load=self.total_load,
        ) as run_span:
            outcome = self._run_protocol(registry)
        if run_span is not None:
            run_span.set(completed=outcome.completed, makespan=outcome.makespan)
        return outcome

    def _run_protocol(self, registry) -> StarOutcome:
        n = self.n
        ledger = PaymentLedger(tracer=self.tracer)
        meter = TamperProofMeter(self._keys[0])
        adjudications: list[Adjudication] = []

        # Phase I: children bid directly to the root (contradictions are
        # detected by the root itself, which needs no reward).
        bids = np.empty(n + 1)
        bids[0] = self.root_rate
        bid_messages: dict[int, SignedMessage] = {}
        for i in range(1, n + 1):
            agent = self.agents[i]
            bid = agent.choose_bid()
            bids[i] = bid
            message = sign(self._keys[i], bid_payload(i, float(bid)))
            bid_messages[i] = message
            second = agent.phase1_second_bid(float(bid))
            if second is not None and second != bid:
                ledger.fine(i, self.fine, "contradictory bids (root-detected)")
                registry.inc("mechanism.fines")
                registry.inc("mechanism.fine_volume", self.fine)
                if self.tracer is not None:
                    self.tracer.event(
                        "fine",
                        proc=i,
                        amount=self.fine,
                        source="root",
                        reason="contradictory bids",
                    )
                return self._aborted(bids, ledger)

        # Schedule from bids: children served in non-decreasing link time
        # (the public, bid-independent optimal order).
        star = StarNetwork(bids, self.z)
        schedule = solve_star(star, order="by-link")
        assigned = schedule.alpha * self.total_load

        # Phase III: children compute (no relaying — nothing to shed onto).
        actual_rates = np.empty(n + 1)
        actual_rates[0] = self.root_rate
        computed = assigned.copy()
        for i in range(1, n + 1):
            agent = self.agents[i]
            actual_rates[i] = max(agent.choose_execution_rate(), agent.true_rate)
            # choose_retention lets an agent abandon work; there is no
            # downstream victim, so the meter itself is the detector.
            kept = agent.choose_retention(float(assigned[i]), float(assigned[i]), 0.0)
            computed[i] = float(np.clip(kept, 0.0, assigned[i]))
        meter_msgs = {
            i: meter.record(i, float(actual_rates[i]), float(computed[i]))
            for i in range(1, n + 1)
        }
        for i in range(1, n + 1):
            if computed[i] < assigned[i] - _WORK_TOL:
                ledger.fine(i, self.fine, "abandoned assigned work (meter-detected)")
                registry.inc("mechanism.fines")
                registry.inc("mechanism.fine_volume", self.fine)
                if self.tracer is not None:
                    self.tracer.event(
                        "fine",
                        proc=i,
                        amount=self.fine,
                        source="meter",
                        reason="abandoned assigned work",
                    )

        # Phase IV: payments.
        ledger.pay(0, float(assigned[0]) * self.root_rate, "root reimbursement")
        auditor = Auditor(self.audit_probability, self.fine, self.rng)
        audits: list[AuditRecord] = []
        correct_q = np.zeros(n + 1)
        billed_q = np.zeros(n + 1)
        for i in range(1, n + 1):
            agent = self.agents[i]
            if computed[i] <= 0.0:
                correct = 0.0
            else:
                bonus = star_bonus(
                    star, i, actual_rate=float(actual_rates[i]), order=schedule.order
                )
                correct = float(assigned[i]) * float(actual_rates[i]) + bonus
            correct_q[i] = correct
            bill = agent.phase4_bill(correct)
            billed_q[i] = bill
            if bill >= 0:
                ledger.pay(i, bill, "phase IV bill")
            else:
                ledger.fine(i, -bill, "phase IV bill (negative payment)")

            def recompute(_proof, i=i):
                # The root recomputes from its own records: the signed
                # bids and its meter.  (The star has no relayed evidence,
                # so the proof object is the root's own state.)
                reading = meter.reading_for(i)
                if reading is None:
                    return None, "no meter record"
                if reading.computed_amount <= 0.0:
                    return 0.0, "computed nothing"
                bonus = star_bonus(
                    star, i, actual_rate=reading.actual_rate, order=schedule.order
                )
                return (
                    float(assigned[i]) * reading.actual_rate + bonus,
                    "recomputed from root records",
                )

            record = auditor.audit(i, bill, object(), recompute)
            audits.append(record)
            registry.inc("mechanism.audits")
            if record.challenged:
                registry.inc("mechanism.audits_challenged")
            if self.tracer is not None:
                self.tracer.event(
                    "audit",
                    proc=record.proc,
                    challenged=record.challenged,
                    billed=record.billed,
                    recomputed=record.recomputed,
                    proof_valid=record.proof_valid,
                    fine=record.fine,
                    reason=record.reason,
                )
            if record.fine > 0:
                ledger.fine(i, record.fine, f"audit penalty (P{i})")
                registry.inc("mechanism.fines")
                registry.inc("mechanism.fine_volume", record.fine)
                if self.tracer is not None:
                    self.tracer.event(
                        "fine",
                        proc=i,
                        amount=record.fine,
                        source="audit",
                        reason=record.reason,
                    )

        reports = self._reports(bids, actual_rates, assigned, computed, correct_q, billed_q, ledger)
        return StarOutcome(
            completed=True,
            bids=bids,
            order=schedule.order,
            assigned=assigned,
            computed=computed,
            actual_rates=actual_rates,
            adjudications=adjudications,
            audits=audits,
            ledger=ledger,
            reports=reports,
            makespan=float(
                star_finishing_times(
                    StarNetwork(actual_rates, self.z), schedule.alpha, schedule.order
                ).max()
                * self.total_load
            ),
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

    # ------------------------------------------------------------------

    def _aborted(self, bids, ledger) -> StarOutcome:
        zeros = np.zeros(self.n + 1)
        reports = self._reports(bids, zeros, zeros, zeros, zeros, zeros, ledger)
        return StarOutcome(
            completed=False,
            bids=bids,
            order=(),
            assigned=zeros,
            computed=zeros,
            actual_rates=zeros,
            adjudications=[],
            audits=[],
            ledger=ledger,
            reports=reports,
            makespan=None,
        )

    def _reports(self, bids, actual_rates, assigned, computed, correct_q, billed_q, ledger):
        reports: dict[int, AgentReport] = {}
        for i in range(1, self.n + 1):
            agent = self.agents[i]
            fines = sum(
                e.amount for e in ledger.entries_for(i)
                if e.debtor == i and "bill" not in e.memo
            )
            rewards = sum(
                e.amount for e in ledger.entries_for(i)
                if e.creditor == i and "bill" not in e.memo
            )
            valuation = -float(computed[i]) * float(actual_rates[i])
            reports[i] = AgentReport(
                index=i,
                strategy=agent.strategy_name,
                true_rate=agent.true_rate,
                bid=float(bids[i]),
                w_bar=float(bids[i]),
                actual_rate=float(actual_rates[i]),
                assigned=float(assigned[i]),
                computed=float(computed[i]),
                valuation=valuation,
                payment_billed=float(billed_q[i]),
                payment_correct=float(correct_q[i]),
                fines=float(fines),
                rewards=float(rewards),
                utility=float(valuation + ledger.balance(i)),
            )
        return reports
