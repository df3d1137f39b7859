"""The DLS-LBL mechanism orchestrator (paper Section 4).

Runs the four phases over a chain of strategic agents:

- **Phase I** — each processor computes its equivalent bid
  :math:`\\bar w_i` bottom-up and sends it, signed, to its predecessor;
  contradictory bids are reported and fined.
- **Phase II** — the root computes the schedule head and the ``G_i``
  bundles cascade down; every processor re-verifies its predecessor's
  arithmetic (eq. 2.7 identities) against the signed evidence; failures
  are reported, fined, and abort the run.
- **Phase III** — the load flows down the chain (simulated on the
  one-port/front-end discrete-event model); Λ certificates expose
  load-shedding; victims grieve and offenders are fined
  :math:`F + (\\tilde\\alpha_{i+1}-\\alpha_{i+1})\\tilde w_{i+1}`.
- **Phase IV** — each processor bills its own payment
  (:func:`~repro.mechanism.payments.payment_breakdown`); the root audits
  with probability ``q`` and fines invalid bills ``F/q``.

The run is deterministic given the agents, the network and the RNG; all
money movements go through the :class:`~repro.mechanism.ledger.PaymentLedger`
so the conservation invariant is checkable afterwards.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.obs.metrics import get_registry
from repro.obs.perf import span as perf_span
from repro.obs.tracer import Tracer
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signing import SignedMessage, sign
from repro.dlt.allocation import LinearSchedule
from repro.exceptions import InvalidNetworkError, ProtocolViolation
from repro.mechanism.audit import AuditRecord, Auditor, recompute_payment_from_proof
from repro.mechanism.ledger import PaymentLedger
from repro.mechanism.payments import payment_breakdown, recommended_fine
from repro.network.topology import LinearNetwork
from repro.protocol.grievance import Adjudication, GrievanceCourt, provable_overload
from repro.protocol.lambda_device import LambdaDevice, LoadCertificate
from repro.protocol.messages import (
    GMessage,
    Grievance,
    GrievanceKind,
    PaymentProof,
    bid_payload,
    value_payload,
)
from repro.protocol.meter import TamperProofMeter
from repro.protocol.verification import verify_g_message
from repro.sim.linear_sim import LinearChainResult, simulate_linear_chain

__all__ = ["AgentReport", "DLSLBLMechanism", "MechanismOutcome"]


@dataclass(frozen=True)
class AgentReport:
    """Per-processor outcome of one mechanism run.

    ``utility`` is the paper's :math:`U_j` (eq. 4.4) extended with the
    grievance/audit transfers: valuation plus everything that reached the
    processor's ledger account.
    """

    index: int
    strategy: str
    true_rate: float
    bid: float
    w_bar: float
    actual_rate: float
    assigned: float
    computed: float
    valuation: float
    payment_billed: float
    payment_correct: float
    fines: float
    rewards: float
    utility: float


@dataclass
class MechanismOutcome:
    """Everything a run produced."""

    completed: bool
    aborted_phase: int | None
    bids: np.ndarray
    w_bar: np.ndarray
    schedule: LinearSchedule | None
    assigned: np.ndarray
    computed: np.ndarray
    actual_rates: np.ndarray
    sim_result: LinearChainResult | None
    adjudications: list[Adjudication]
    audits: list[AuditRecord]
    ledger: PaymentLedger
    reports: dict[int, AgentReport]
    makespan: float | None

    def utility(self, index: int) -> float:
        """Utility of processor ``index`` (0 for the root by eq. 4.3)."""
        if index == 0:
            return 0.0
        return self.reports[index].utility

    def total_payments(self) -> float:
        """The mechanism's net outlay (cost of incentives plus work)."""
        return self.ledger.mechanism_outlay()


class DLSLBLMechanism:
    """One configured instance of the mechanism.

    Parameters
    ----------
    link_rates:
        Public unit communication times ``z_1 .. z_m`` (links and their
        protocols are obedient/tamper-proof by assumption).
    root_rate:
        The obedient root's true unit processing time ``w_0``.
    agents:
        Strategic agents for positions ``1 .. m`` (any order; indices
        must be exactly ``1..m``).
    fine:
        The fine ``F``; defaults to
        :func:`~repro.mechanism.payments.recommended_fine` over the
        *true* rates with a safety margin.
    audit_probability:
        The Phase IV challenge probability ``q``.
    total_load:
        Load units originating at the root.
    rng:
        Randomness for audit draws (and nothing else — the protocol is
        deterministic).
    key_seed:
        Optional deterministic seed for the simulated PKI.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when given, the run
        emits ``run``/``phase_*`` spans plus ``grievance``, ``fine``,
        ``audit``, ``ledger_transfer`` and ``sim_interval`` events.
        ``None`` (the default) records nothing and costs nothing.
    """

    def __init__(
        self,
        link_rates: Sequence[float],
        root_rate: float,
        agents: Sequence[ProcessorAgent],
        *,
        fine: float | None = None,
        audit_probability: float = 0.25,
        total_load: float = 1.0,
        rng: np.random.Generator | None = None,
        key_seed: bytes | None = b"dls-lbl",
        enforcement: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        self.z = np.asarray(link_rates, dtype=np.float64)
        if self.z.ndim != 1 or self.z.size == 0:
            raise InvalidNetworkError("need at least one link (m >= 1)")
        agents_sorted = sorted(agents, key=lambda a: a.index)
        if [a.index for a in agents_sorted] != list(range(1, self.z.size + 1)):
            raise InvalidNetworkError(
                f"agents must cover indices 1..{self.z.size}, got "
                f"{[a.index for a in agents_sorted]}"
            )
        self.agents = {a.index: a for a in agents_sorted}
        self.m = self.z.size
        self.root_rate = float(root_rate)
        self.total_load = float(total_load)
        self.rng = rng if rng is not None else np.random.default_rng(0)

        self.registry, keys = KeyRegistry.for_processors(self.m + 1, seed=key_seed)
        self._keys: dict[int, KeyPair] = {pair.owner: pair for pair in keys}

        true_rates = np.array([self.root_rate] + [a.true_rate for a in agents_sorted])
        self.fine = (
            float(fine)
            if fine is not None
            else recommended_fine(true_rates, total_load=self.total_load, max_overcharge=10.0 * true_rates.max())
        )
        self.audit_probability = float(audit_probability)
        #: Ablation switch: when ``False``, the verification machinery is
        #: disabled — no Phase I/II checks, no Λ grievances, no audits.
        #: Exists only so experiment A1 can quantify what each enforcement
        #: component is worth; a deployment would never disable it.
        self.enforcement = bool(enforcement)
        self.tracer = tracer

    def _span(self, kind: str, **attrs):
        """A tracer span, or a no-op context when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(kind, **attrs)

    def run(self) -> MechanismOutcome:
        """Execute Phases I–IV and return the full outcome.

        The run is wrapped in a ``run`` trace span with one nested span
        per protocol phase; per-phase wall-clock goes to the perf spans
        (``perf.….mechanism.phase_*``), never into the trace.
        """
        registry = get_registry()
        registry.inc("mechanism.runs")
        with perf_span("mechanism"), self._span(
            "run",
            m=self.m,
            fine=self.fine,
            audit_probability=self.audit_probability,
            total_load=self.total_load,
            enforcement=self.enforcement,
        ) as run_span:
            outcome = self._run_phases(registry)
        if run_span is not None:
            run_span.set(
                completed=outcome.completed,
                aborted_phase=outcome.aborted_phase,
                makespan=outcome.makespan,
            )
        return outcome

    def _run_phases(self, registry) -> MechanismOutcome:
        m = self.m
        ledger = PaymentLedger(tracer=self.tracer)
        lambda_device = LambdaDevice(self.total_load)
        meter = TamperProofMeter(self._keys[0])
        court = GrievanceCourt(
            self.registry, lambda_device, meter, self.z, self.fine, total_load=self.total_load
        )
        self._court = court
        adjudications: list[Adjudication] = []

        # Raw bids w_i.  The terminal's Phase I "computation" is its bid.
        bids = np.empty(m + 1)
        bids[0] = self.root_rate
        with perf_span("bidding"):
            for i in range(1, m + 1):
                bids[i] = self.agents[i].choose_bid()

        # ---------------- Phase I: bottom-up equivalent bids -------------
        w_bar = np.empty(m + 1)
        alpha_hat = np.empty(m + 1)
        bid_messages: dict[int, SignedMessage] = {}
        with perf_span("phase_1"), self._span("phase_1", m=m):
            for i in range(m, 0, -1):
                agent = self.agents[i]
                if i == m:
                    honest = bids[m]
                else:
                    tail = w_bar[i + 1] + self.z[i]  # link i+1 is z[i]
                    hat = tail / (bids[i] + tail)
                    honest = hat * bids[i]
                reported = agent.phase1_w_bar(honest)
                w_bar[i] = reported
                if i == m:
                    # The terminal's equivalent bid IS its raw bid
                    # (alpha_hat_m = 1), so a "miscomputed" report is simply a
                    # different bid.
                    bids[m] = reported
                    alpha_hat[i] = 1.0
                else:
                    # The local fraction consistent with the agent's own signed
                    # story (honest agents: the true alpha_hat).
                    alpha_hat[i] = reported / bids[i]
                message = sign(self._keys[i], bid_payload(i, reported))
                bid_messages[i] = message
                if self.enforcement and agent.phase1_sends_malformed():
                    # "Processor P_{i-1} terminates the protocol if it ...
                    # receives malformed or inauthentic messages."  With no
                    # authentic evidence there is nobody to fine.
                    return self._aborted(1, bids, w_bar, adjudications, ledger)
                second = agent.phase1_second_bid(reported)
                if self.enforcement and second is not None and second != reported:
                    # Deviation (i): the recipient P_{i-1} holds two authentic,
                    # different bids and submits both to the root.
                    conflicting = sign(self._keys[i], bid_payload(i, second))
                    grievance = Grievance(
                        kind=GrievanceKind.CONTRADICTORY_MESSAGES,
                        accuser=i - 1,
                        accused=i,
                        conflicting=(message, conflicting),
                    )
                    adjudications.append(self._settle(court.adjudicate(grievance), ledger))
                    return self._aborted(1, bids, w_bar, adjudications, ledger)

            # Root-side head of the reduction (the root is obedient).
            tail0 = w_bar[1] + self.z[0]
            alpha_hat[0] = tail0 / (bids[0] + tail0)
            w_bar[0] = alpha_hat[0] * bids[0]

        # ---------------- Phase II: top-down G cascade --------------------
        received_share = np.empty(m + 1)  # D_i per unit load, per the bids
        received_share[0] = 1.0
        g_messages: dict[int, GMessage] = {}

        def scalar(signer: int, kind: str, proc: int, value: float) -> SignedMessage:
            return sign(self._keys[signer], value_payload(kind, proc, value))

        with perf_span("phase_2"), self._span("phase_2"):
            # Root constructs G_1 (eq. 4.1) — all components root-signed.
            received_share[1] = 1.0 - alpha_hat[0]
            g_messages[1] = GMessage(
                recipient=1,
                d_prev=scalar(0, "D", 0, 1.0),
                d_self=scalar(0, "D", 1, received_share[1]),
                w_bar_prev=scalar(0, "w_bar", 0, w_bar[0]),
                w_prev=scalar(0, "w", 0, bids[0]),
                w_bar_self=scalar(0, "w_bar", 1, w_bar[1]),
            )

            for i in range(1, m + 1):
                agent = self.agents[i]
                g = g_messages[i]
                if self.enforcement and agent.phase2_validates():
                    try:
                        verify_g_message(
                            g,
                            registry=self.registry,
                            recipient=i,
                            own_w_bar=w_bar[i],
                            z_link=float(self.z[i - 1]),
                        )
                    except ProtocolViolation:
                        grievance = Grievance(
                            kind=GrievanceKind.INCONSISTENT_COMPUTATION,
                            accuser=i,
                            accused=i - 1,
                            g_message=g,
                        )
                        verdict = court.adjudicate(grievance, accuser_bid=bid_messages[i])
                        adjudications.append(self._settle(verdict, ledger))
                        return self._aborted(2, bids, w_bar, adjudications, ledger)
                if i < m:
                    honest_d_next = received_share[i] * (1.0 - alpha_hat[i])
                    d_next = agent.phase2_d_next(honest_d_next)
                    received_share[i + 1] = d_next
                    echo = agent.phase2_echo_bid(w_bar[i + 1])
                    g_messages[i + 1] = GMessage(
                        recipient=i + 1,
                        d_prev=g.d_self,  # relay dsm_{i-1}(D_i)
                        d_self=scalar(i, "D", i + 1, d_next),
                        w_bar_prev=g.w_bar_self,  # relay dsm_{i-1}(w_bar_i)
                        w_prev=scalar(i, "w", i, bids[i]),
                        w_bar_self=scalar(i, "w_bar", i + 1, echo),
                    )

        # The bid-derived schedule (what an outside observer would compute
        # from the reported values).
        assigned = received_share * alpha_hat * self.total_load
        schedule = self._schedule_from_bids(bids, w_bar, alpha_hat, received_share)

        # ---------------- Phase III: distribution & computation ----------
        with perf_span("phase_3"), self._span("phase_3") as phase3_span:
            actual_rates = np.empty(m + 1)
            actual_rates[0] = self.root_rate
            delays = np.zeros(m + 1)
            for i in range(1, m + 1):
                agent = self.agents[i]
                actual_rates[i] = max(agent.choose_execution_rate(), agent.true_rate)
                delays[i] = max(agent.phase3_forward_delay(), 0.0)

            retained, received_actual = self._flows(assigned, received_share)
            network = LinearNetwork(actual_rates, self.z)
            with perf_span("simulate"):
                sim_result = simulate_linear_chain(
                    network,
                    retained,
                    speeds=network.w,
                    total_load=self.total_load,
                    # Only pass the delays when somebody actually delays:
                    # the honest path must stay byte-identical to older traces.
                    send_delays=delays if np.any(delays > 0.0) else None,
                )
            computed = sim_result.computed
            if self.tracer is not None:
                sim_result.trace.record_to(self.tracer)
            if phase3_span is not None:
                phase3_span.set(makespan=sim_result.makespan)

            # Λ certificates: processor i holds the trailing block range of
            # what actually reached it.
            certificates: dict[int, LoadCertificate] = {}
            for i in range(1, m + 1):
                amount = lambda_device.quantize(received_actual[i])
                first_block = lambda_device.total_blocks - int(round(amount * lambda_device.blocks_per_unit))
                certificates[i] = lambda_device.issue(i, first_block, amount)

            # Meter readings (root-signed).
            meter_msgs: dict[int, SignedMessage] = {}
            for i in range(1, m + 1):
                meter_msgs[i] = meter.record(i, actual_rates[i], float(computed[i]))

            # Overload grievances (honest victims report a provable
            # overload; Phase III grievances do not abort the run).
            for i in range(1, m + 1) if self.enforcement else ():
                expected = received_share[i] * self.total_load
                if (
                    provable_overload(received_actual[i], expected, certificates[i], lambda_device)
                    and self.agents[i].reports_overload()
                ):
                    grievance = Grievance(
                        kind=GrievanceKind.OVERLOAD,
                        accuser=i,
                        accused=i - 1,
                        g_message=g_messages[i],
                        certificate=certificates[i],
                        meter_reading=meter_msgs[i],
                        expected_received=expected,
                    )
                    adjudications.append(self._settle(court.adjudicate(grievance), ledger))

            # Fabricated accusations (deviation (v)): only where the
            # accuser holds no provable overload.
            for i in range(1, m + 1) if self.enforcement else ():
                agent = self.agents[i]
                kind = agent.fabricates_accusation()
                expected = received_share[i] * self.total_load
                if kind is not None and not provable_overload(
                    received_actual[i], expected, certificates[i], lambda_device
                ):
                    grievance = Grievance(
                        kind=GrievanceKind.OVERLOAD,
                        accuser=i,
                        accused=i - 1,
                        g_message=g_messages[i],
                        certificate=certificates[i],
                        meter_reading=meter_msgs[i],
                        expected_received=expected,
                    )
                    adjudications.append(self._settle(court.adjudicate(grievance), ledger))

        # ---------------- Phase IV: payments ------------------------------
        with perf_span("phase_4"), self._span("phase_4"):
            # Root reimbursement (eq. 4.3): U_0 = 0 by construction.
            ledger.pay(0, float(assigned[0] * self.root_rate), "root reimbursement")

            auditor = Auditor(self.audit_probability, self.fine, self.rng)
            audits: list[AuditRecord] = []
            correct_q = np.zeros(m + 1)
            billed_q = np.zeros(m + 1)
            for i in range(1, m + 1):
                agent = self.agents[i]
                breakdown = payment_breakdown(
                    proc=i,
                    is_terminal=(i == m),
                    assigned=float(assigned[i]),
                    computed=float(computed[i]),
                    actual_rate=float(actual_rates[i]),
                    own_bid=float(bids[i]),
                    own_w_bar=float(w_bar[i]),
                    own_alpha_hat=float(alpha_hat[i]),
                    predecessor_bid=float(bids[i - 1]),
                    z_link=float(self.z[i - 1]),
                )
                correct_q[i] = breakdown.payment
                bill = agent.phase4_bill(breakdown.payment)
                billed_q[i] = bill
                # Q_j may be negative (a heavily misreporting agent owes the
                # mechanism — the bonus term can exceed the compensation in
                # magnitude); the ledger direction follows the sign.
                if bill >= 0:
                    ledger.pay(i, bill, "phase IV bill")
                else:
                    ledger.fine(i, -bill, "phase IV bill (negative payment)")

                if not self.enforcement:
                    continue
                proof = PaymentProof(
                    proc=i,
                    g_message=g_messages[i],
                    successor_bid=bid_messages.get(i + 1),
                    own_bid=scalar(i, "w", i, float(bids[i])),
                    meter=meter_msgs[i],
                    certificate=certificates[i],
                )
                # The agent forwards its own evidence bundle; tampering
                # here (meter/Λ forgery) is what the audit recomputation
                # is designed to expose.
                proof = agent.phase4_proof(proof)
                record = auditor.audit(
                    i,
                    bill,
                    proof,
                    lambda p: recompute_payment_from_proof(
                        p,
                        registry=self.registry,
                        meter=meter,
                        lambda_device=lambda_device,
                        link_rates=self.z,
                        n_processors=m + 1,
                        total_load=self.total_load,
                    ),
                )
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

        reports = self._reports(
            bids, w_bar, actual_rates, assigned, computed, correct_q, billed_q, ledger
        )
        return MechanismOutcome(
            completed=True,
            aborted_phase=None,
            bids=bids,
            w_bar=w_bar,
            schedule=schedule,
            assigned=assigned,
            computed=computed,
            actual_rates=actual_rates,
            sim_result=sim_result,
            adjudications=adjudications,
            audits=audits,
            ledger=ledger,
            reports=reports,
            makespan=sim_result.makespan,
        )

    # ------------------------------------------------------------------

    def _flows(self, assigned: np.ndarray, received_share: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve the actual load flow given each agent's retention policy.

        Returns ``(retained, received_actual)`` in absolute load units.
        The flow is deterministic, so it is resolved up front and handed
        to the discrete-event simulator as a static plan.
        """
        m = self.m
        retained = np.zeros(m + 1)
        received_actual = np.zeros(m + 1)
        received_actual[0] = self.total_load
        retained[0] = assigned[0]  # the root is obedient
        for i in range(1, m + 1):
            received_actual[i] = received_actual[i - 1] - retained[i - 1]
            if i == m:
                retained[i] = received_actual[i]
            else:
                expected_forward = received_share[i + 1] * self.total_load
                choice = self.agents[i].choose_retention(
                    float(assigned[i]), float(received_actual[i]), float(expected_forward)
                )
                retained[i] = float(np.clip(choice, 0.0, received_actual[i]))
        return retained, received_actual

    def _schedule_from_bids(
        self,
        bids: np.ndarray,
        w_bar: np.ndarray,
        alpha_hat: np.ndarray,
        received_share: np.ndarray,
    ) -> LinearSchedule:
        network = LinearNetwork(bids, self.z)
        return LinearSchedule(
            network=network,
            alpha=received_share * alpha_hat,
            alpha_hat=alpha_hat.copy(),
            received=received_share.copy(),
            w_eq=w_bar.copy(),
            makespan=float(w_bar[0]),
        )

    def _settle(self, verdict: Adjudication, ledger: PaymentLedger) -> Adjudication:
        """Apply an adjudication via the court's shared settlement path.

        Delegates to :meth:`GrievanceCourt.apply` so that every verdict —
        including frivolous grievances where the *accuser* is fined —
        produces the same ledger entries, metrics and trace events
        regardless of which caller adjudicated it.
        """
        return self._court.apply(verdict, ledger, tracer=self.tracer)

    def _aborted(
        self,
        phase: int,
        bids: np.ndarray,
        w_bar: np.ndarray,
        adjudications: list[Adjudication],
        ledger: PaymentLedger,
    ) -> MechanismOutcome:
        """An aborted run: nobody computes, utilities are transfer-only
        ("processors not partaking in complaints receive zero utility")."""
        registry = get_registry()
        registry.inc("mechanism.aborts")
        registry.inc(f"mechanism.aborts.phase_{phase}")
        m = self.m
        zeros = np.zeros(m + 1)
        reports = self._reports(bids, w_bar, zeros, zeros, zeros, zeros, zeros, ledger)
        return MechanismOutcome(
            completed=False,
            aborted_phase=phase,
            bids=bids,
            w_bar=w_bar,
            schedule=None,
            assigned=zeros,
            computed=zeros,
            actual_rates=zeros,
            sim_result=None,
            adjudications=adjudications,
            audits=[],
            ledger=ledger,
            reports=reports,
            makespan=None,
        )

    def _reports(
        self,
        bids: np.ndarray,
        w_bar: np.ndarray,
        actual_rates: np.ndarray,
        assigned: np.ndarray,
        computed: np.ndarray,
        correct_q: np.ndarray,
        billed_q: np.ndarray,
        ledger: PaymentLedger,
    ) -> dict[int, AgentReport]:
        reports: dict[int, AgentReport] = {}
        for i in range(1, self.m + 1):
            agent = self.agents[i]
            fines = sum(
                e.amount
                for e in ledger.entries_for(i)
                if e.debtor == i and "bill" not in e.memo
            )
            rewards = sum(
                e.amount
                for e in ledger.entries_for(i)
                if e.creditor == i and "bill" not in e.memo
            )
            valuation = -float(computed[i]) * float(actual_rates[i])
            utility = valuation + ledger.balance(i)
            reports[i] = AgentReport(
                index=i,
                strategy=agent.strategy_name,
                true_rate=agent.true_rate,
                bid=float(bids[i]),
                w_bar=float(w_bar[i]),
                actual_rate=float(actual_rates[i]),
                assigned=float(assigned[i]),
                computed=float(computed[i]),
                valuation=valuation,
                payment_billed=float(billed_q[i]),
                payment_correct=float(correct_q[i]),
                fines=float(fines),
                rewards=float(rewards),
                utility=float(utility),
            )
        return reports
