"""The scalar protocol skeleton shared by the four mechanisms.

The paper defines one protocol: Phase I collects equivalent bids
bottom-up, Phase II runs the signed ``G`` cascade, Phase III is load
flow with Λ certificates and grievances, and Phase IV is billing with
probabilistic audits.  DLS-LBL (:mod:`~repro.mechanism.dls_lbl`) runs it
on one arm rooted at processor 0; DLS-LIL (:mod:`~repro.mechanism.dls_lil`)
runs it on each arm of an interior-rooted chain; the star
(:mod:`~repro.mechanism.star_mechanism`) and the tree
(:mod:`~repro.mechanism.tree_mechanism`) are reduced forms that keep only
their own allocation and payment rules.  This module holds what they
share:

- :class:`AgentReport` and :class:`ProtocolOutcome`, the base of the four
  outcome types;
- :class:`ScalarMechanism`: the constructor preamble (agent-index check,
  simulated PKI, the default fine), the :meth:`~ScalarMechanism.run`
  wrapper (run counter, perf span, ``run`` trace span), the report
  builder, the aborted outcome, bills, fines and the audit record;
- :class:`ChainArm`, :class:`ChainRun` and :class:`ChainProtocol`, whose
  Phase I–IV helpers run one arm of a chain.

Divergences between the mechanisms that must survive the sharing, each
pinned by a golden trace or a differential test:

- the tree's ledger memos are ``"payment"``, not ``"phase IV bill"``, so
  :meth:`ScalarMechanism._reports` counts neither as a fine or reward and
  the tree's reports keep ``fines = rewards = 0`` (the tree golden trace,
  ``test_tree_mechanism.py::TestOutcomeFields``);
- DLS-LBL's ``enforcement=False`` (experiment A1) skips the Phase I/II
  checks, the grievances and the audits (``test_ablation.py``);
- DLS-LBL's head verifies ``G_1``, while a DLS-LIL arm head verifies the
  root's star split instead (:attr:`ChainProtocol.head_checks_g`; the
  ``crypto.verifications_performed`` counts and the X4 golden text);
- ``send_delays`` reaches the chain simulator only when somebody delays
  (a zero delay adds ``+0.0`` and would leave the honest bytes the golden
  traces pin unchanged; the ``msg_delay`` fault scenarios cover delays);
- DLS-LIL's old signer cast values to ``float`` and DLS-LBL's did not;
  :meth:`ChainProtocol._signed` passes them uncast to
  :func:`~repro.protocol.messages.value_payload`, which casts, so both
  produce the bytes ``tests/data/canonical_bytes.json`` pins;
- the star's root-detected abort has no phase and counts no abort
  (:meth:`ScalarMechanism._aborted`), the wire contract
  :func:`~repro.mechanism.batch_run.contradiction_aborts` reproduces
  (``test_star_mechanism.py``, ``test_prop_batch_deviants.py``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signing import SignedMessage, sign
from repro.exceptions import InvalidNetworkError, ProtocolViolation
from repro.mechanism.audit import AuditRecord, Auditor, recompute_payment_from_proof
from repro.mechanism.ledger import PaymentLedger
from repro.mechanism.payments import payment_breakdown, recommended_fine
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.perf import span as perf_span
from repro.obs.tracer import Tracer
from repro.protocol.grievance import (
    Adjudication,
    GrievanceCourt,
    apply_adjudication,
    levy,
    provable_overload,
)
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

__all__ = [
    "AgentReport",
    "ChainArm",
    "ChainProtocol",
    "ChainRun",
    "ProtocolOutcome",
    "RunBooks",
    "ScalarMechanism",
]


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


@dataclass(kw_only=True)
class ProtocolOutcome:
    """Everything a run produced, indexed by processor; the obedient root
    sits at ``root_index``.

    ``w_bar`` holds the equivalent bids (a star child's is its bid).  An
    aborted run has ``completed=False``, zero loads, no audits and no
    makespan.
    """

    completed: bool
    aborted_phase: int | None
    bids: np.ndarray
    w_bar: np.ndarray
    assigned: np.ndarray
    computed: np.ndarray
    actual_rates: np.ndarray
    adjudications: list[Adjudication]
    audits: list[AuditRecord]
    ledger: PaymentLedger
    reports: dict[int, AgentReport]
    makespan: float | None
    root_index: int = 0

    def utility(self, index: int) -> float:
        """Utility of processor ``index`` (0 for the root by eq. 4.3)."""
        if index == self.root_index:
            return 0.0
        return self.reports[index].utility

    def total_payments(self) -> float:
        """The mechanism's net outlay (cost of incentives plus work)."""
        return self.ledger.mechanism_outlay()


class RunBooks:
    """One run's bids and books: the ledger, and the verdicts and audits
    that moved money through it."""

    def __init__(self, mech: "ScalarMechanism", metrics: MetricsRegistry, size: int) -> None:
        self.metrics = metrics
        self.ledger = PaymentLedger(tracer=mech.tracer)
        self.adjudications: list[Adjudication] = []
        self.audits: list[AuditRecord] = []
        self.bids = np.zeros(size)
        self.bids[mech.root_index] = mech.root_rate
        for i, agent in mech.agents.items():
            self.bids[i] = agent.choose_bid()
        self.w_bar = np.zeros(size)


class ScalarMechanism:
    """Configuration, run wrapper and settlement shared by the scalar
    mechanisms.

    A subclass calls :meth:`_configure` (and :meth:`_configure_audits`
    when it audits), sets the class attributes below and implements
    ``_run_attrs()`` (the ``run`` span's opening attributes) and
    ``_run_protocol(metrics)``.
    """

    #: The outcome type a run returns.
    outcome_type: type[ProtocolOutcome] = ProtocolOutcome
    #: Counter bumped once per run and the perf span the run is timed
    #: under; each mechanism has its own, so the chain's stay untouched.
    runs_counter = "mechanism.runs"
    perf_name = "mechanism"
    #: Outcome fields the ``run`` trace span records when the run ends.
    run_results: tuple[str, ...] = ("completed", "makespan")
    #: Processor index of the obedient root.
    root_index = 0
    #: Whether the verification machinery (checks, grievances, audits)
    #: runs; only DLS-LBL can switch it off.
    enforcement = True

    agents: dict[int, ProcessorAgent]
    tracer: Tracer | None

    def _configure(
        self,
        agents: Sequence[ProcessorAgent],
        expected: list[int],
        root_rate: float,
        *,
        fine: float | None,
        total_load: float,
        tracer: Tracer | None,
    ) -> None:
        """Check that ``agents`` cover exactly the indices ``expected``
        and set the root rate, load, tracer and fine ``F``.  ``F``
        defaults to :func:`~repro.mechanism.payments.recommended_fine`
        over the *true* rates, admitting bill overcharges up to ten times
        the slowest rate."""
        got = sorted(a.index for a in agents)
        if got != expected:
            raise InvalidNetworkError(f"agents must cover indices {expected}, got {got}")
        self.agents = {a.index: a for a in sorted(agents, key=lambda a: a.index)}
        self.root_rate = float(root_rate)
        self.total_load = float(total_load)
        self.tracer = tracer
        true_rates = np.array([self.root_rate] + [a.true_rate for a in self.agents.values()])
        self.fine = (
            float(fine)
            if fine is not None
            else recommended_fine(
                true_rates, total_load=self.total_load, max_overcharge=10.0 * true_rates.max()
            )
        )

    def _configure_audits(
        self,
        audit_probability: float,
        rng: np.random.Generator | None,
        key_seed: bytes | None,
    ) -> None:
        """The audit probability ``q``, the audit draws' generator and the
        simulated PKI (one key pair per processor, root included)."""
        self.audit_probability = float(audit_probability)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.registry, keys = KeyRegistry.for_processors(len(self.agents) + 1, seed=key_seed)
        self._keys: dict[int, KeyPair] = {pair.owner: pair for pair in keys}

    def _span(self, kind: str, **attrs):
        """A tracer span, or a no-op context when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(kind, **attrs)

    def _run_attrs(self) -> dict[str, Any]:
        raise NotImplementedError

    def _run_protocol(self, metrics: MetricsRegistry) -> ProtocolOutcome:
        raise NotImplementedError

    def run(self) -> ProtocolOutcome:
        """Execute the mechanism and return the full outcome.

        The run bumps :attr:`runs_counter` and is timed under the perf
        span :attr:`perf_name`; with a tracer it is wrapped in a ``run``
        span (nested ``phase_*`` spans and events are the mechanism's),
        which records :attr:`run_results` on close.  Wall-clock never
        enters the trace.
        """
        metrics = get_registry()
        metrics.inc(self.runs_counter)
        with perf_span(self.perf_name), self._span("run", **self._run_attrs()) as run_span:
            outcome = self._run_protocol(metrics)
        if run_span is not None:
            run_span.set(**{name: getattr(outcome, name) for name in self.run_results})
        return outcome

    # -- shared protocol steps ------------------------------------------

    def _execution_rates(self, size: int) -> np.ndarray:
        """Phase III rates: the root's own, and each agent's choice
        clamped to its true rate (nobody runs faster than capacity)."""
        rates = np.zeros(size)
        rates[self.root_index] = self.root_rate
        for i, agent in self.agents.items():
            rates[i] = max(agent.choose_execution_rate(), agent.true_rate)
        return rates

    def _bill(self, books: RunBooks, proc: int, bill: float) -> None:
        """Pay a Phase IV bill.  ``Q_j`` may be negative (a heavily
        misreporting agent owes the mechanism: the bonus can exceed the
        compensation in magnitude); the ledger direction follows the sign."""
        if bill >= 0:
            books.ledger.pay(proc, bill, "phase IV bill")
        else:
            books.ledger.fine(proc, -bill, "phase IV bill (negative payment)")

    def _record_audit(self, books: RunBooks, record: AuditRecord) -> None:
        """Keep one Phase IV audit: the ``mechanism.audits*`` counters,
        the ``audit`` trace event and, for an invalid bill, the ``F/q``
        penalty."""
        books.audits.append(record)
        books.metrics.inc("mechanism.audits")
        if record.challenged:
            books.metrics.inc("mechanism.audits_challenged")
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
            levy(
                books.ledger,
                books.metrics,
                record.proc,
                record.fine,
                f"audit penalty (P{record.proc})",
                source="audit",
                reason=record.reason,
                tracer=self.tracer,
            )

    # -- outcomes -------------------------------------------------------

    def _reports(
        self,
        books: RunBooks,
        actual_rates: np.ndarray,
        assigned: np.ndarray,
        computed: np.ndarray,
        correct_q: np.ndarray,
        billed_q: np.ndarray,
    ) -> dict[int, AgentReport]:
        """One report per agent.  ``fines`` and ``rewards`` sum the
        agent's ledger transfers other than its payment: Phase IV bills
        (memos containing ``"bill"``) and the tree's ``"payment"``
        entries count as neither."""
        fines: dict[Any, float] = dict.fromkeys(self.agents, 0)
        rewards: dict[Any, float] = dict.fromkeys(self.agents, 0)
        for entry in books.ledger.entries:
            if "bill" in entry.memo or entry.memo.startswith("payment"):
                continue
            if entry.debtor in fines:
                fines[entry.debtor] += entry.amount
            if entry.creditor in rewards:
                rewards[entry.creditor] += entry.amount
        ledger, bids, w_bar = books.ledger, books.bids, books.w_bar
        reports: dict[int, AgentReport] = {}
        for i, agent in self.agents.items():
            valuation = -float(computed[i]) * float(actual_rates[i])
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
                fines=float(fines[i]),
                rewards=float(rewards[i]),
                utility=float(valuation + ledger.balance(i)),
            )
        return reports

    def _completed(
        self,
        books: RunBooks,
        assigned: np.ndarray,
        computed: np.ndarray,
        actual_rates: np.ndarray,
        correct_q: np.ndarray,
        billed_q: np.ndarray,
        makespan: float,
        **fields: Any,
    ) -> ProtocolOutcome:
        """The outcome of a run that reached the end of Phase IV;
        ``fields`` are the outcome type's own."""
        return self.outcome_type(
            completed=True,
            aborted_phase=None,
            bids=books.bids,
            w_bar=books.w_bar,
            assigned=assigned,
            computed=computed,
            actual_rates=actual_rates,
            adjudications=books.adjudications,
            audits=books.audits,
            ledger=books.ledger,
            reports=self._reports(books, actual_rates, assigned, computed, correct_q, billed_q),
            makespan=makespan,
            root_index=self.root_index,
            **fields,
        )

    def _aborted(self, phase: int | None, books: RunBooks) -> ProtocolOutcome:
        """An aborted run: nobody computes, utilities are transfer-only
        ("processors not partaking in complaints receive zero utility").

        It counts under ``mechanism.aborts`` and
        ``mechanism.aborts.phase_<phase>``.  The star's root-detected
        abort passes no phase and counts nothing.
        """
        if phase is not None:
            books.metrics.inc("mechanism.aborts")
            books.metrics.inc(f"mechanism.aborts.phase_{phase}")
        zeros = np.zeros(books.bids.size)
        return self.outcome_type(
            completed=False,
            aborted_phase=phase,
            bids=books.bids,
            w_bar=books.w_bar,
            assigned=zeros,
            computed=zeros,
            actual_rates=zeros,
            adjudications=books.adjudications,
            audits=[],
            ledger=books.ledger,
            reports=self._reports(books, zeros, zeros, zeros, zeros, zeros),
            makespan=None,
            root_index=self.root_index,
        )


class ChainArm:
    """One arm of a chain, ordered outward from the root at ``root``.

    ``members[k]`` is the ``k``-th processor out and ``links[k]`` the
    link time into it (from the root for ``k = 0``).  ``senders[k]``
    relays ``members[k]``'s load and ``G`` bundle; ``attestors[k]``
    signed the relayed components of that bundle (the root self-signs
    the head's).  Plain ints and floats: the arm helpers index with them
    once per step.
    """

    __slots__ = ("side", "root", "members", "links", "senders", "attestors")

    def __init__(
        self, side: str, root: int, members: Sequence[int], links: Sequence[float]
    ) -> None:
        self.side = side
        self.root = root
        self.members = [int(i) for i in members]
        self.links = [float(z) for z in links]
        self.senders = [root] + self.members[:-1]
        self.attestors = [root, root] + self.members[:-2]


class ChainRun(RunBooks):
    """One chain run's state, indexed by chain position: the books, the
    bid reduction, the load shares and the signed evidence."""

    def __init__(self, mech: "ChainProtocol", metrics: MetricsRegistry, size: int) -> None:
        super().__init__(mech, metrics, size)
        root = mech.root_index
        self.alpha_hat = np.zeros(size)
        #: ``D_i`` per unit load, per the bids.
        self.received_share = np.zeros(size)
        self.received_share[root] = 1.0
        #: Load that actually reached each processor.
        self.received_actual = np.zeros(size)
        self.received_actual[root] = mech.total_load
        self.lambda_device = LambdaDevice(mech.total_load)
        self.meter = TamperProofMeter(mech._keys[root], owner=root)
        self.court = GrievanceCourt(
            mech.registry,
            self.lambda_device,
            self.meter,
            mech.z,
            mech.fine,
            total_load=mech.total_load,
        )
        self.bid_messages: dict[int, SignedMessage] = {}
        self.g_messages: dict[int, GMessage] = {}
        self.certificates: dict[int, LoadCertificate] = {}
        self.meter_msgs: dict[int, SignedMessage] = {}


class ChainProtocol(ScalarMechanism):
    """The Phase I–IV helpers of a chain, run one :class:`ChainArm` at a
    time.  Each returns ``True`` when the run aborts."""

    #: Whether an arm head checks its ``G`` bundle (DLS-LBL's ``P_1``
    #: checks ``G_1``); a DLS-LIL head checks the root's split instead.
    head_checks_g = True

    z: np.ndarray
    registry: KeyRegistry
    _keys: dict[int, KeyPair]

    def _signed(self, signer: int, kind: str, proc: int, value: float) -> SignedMessage:
        """``dsm_signer`` of a named scalar (``D``, ``w``, ``w_bar``);
        :func:`~repro.protocol.messages.value_payload` casts to float."""
        return sign(self._keys[signer], value_payload(kind, proc, value))

    def _settle(
        self, run: ChainRun, grievance: Grievance, accuser_bid: SignedMessage | None = None
    ) -> None:
        """Adjudicate ``grievance`` and settle it through
        :func:`~repro.protocol.grievance.apply_adjudication`, the one
        path that moves the money and records the counters and events;
        the root keeps rewards addressed to it."""
        verdict = run.court.adjudicate(grievance, accuser_bid=accuser_bid)
        run.adjudications.append(
            apply_adjudication(verdict, run.ledger, tracer=self.tracer, root=self.root_index)
        )

    def _phase_1(self, run: ChainRun, arm: ChainArm) -> bool:
        """Bottom-up equivalent bids along ``arm``: each member folds its
        successor's signed ``w_bar`` into its own and signs the result
        to its sender.  A malformed message aborts with nobody to fine;
        two different signed bids are grieved by the recipient, fined,
        and abort."""
        bids, w_bar, alpha_hat = run.bids, run.w_bar, run.alpha_hat
        members, links = arm.members, arm.links
        last = len(members) - 1
        for k in range(last, -1, -1):
            pos = members[k]
            agent = self.agents[pos]
            if k == last:
                honest = bids[pos]
            else:
                tail = w_bar[members[k + 1]] + links[k + 1]
                honest = tail / (bids[pos] + tail) * bids[pos]
            reported = agent.phase1_w_bar(honest)
            w_bar[pos] = reported
            if k == last:
                # The terminal's equivalent bid IS its raw bid
                # (alpha_hat = 1), so a "miscomputed" report is simply a
                # different bid.
                bids[pos] = reported
                alpha_hat[pos] = 1.0
            else:
                # The local fraction consistent with the agent's own
                # signed story (honest agents: the true alpha_hat).
                alpha_hat[pos] = reported / bids[pos]
            message = sign(self._keys[pos], bid_payload(pos, reported))
            run.bid_messages[pos] = message
            if self.enforcement and agent.phase1_sends_malformed():
                # "Processor P_{i-1} terminates the protocol if it ...
                # receives malformed or inauthentic messages."
                return True
            second = agent.phase1_second_bid(reported)
            if self.enforcement and second is not None and second != reported:
                # Deviation (i): the recipient holds two authentic,
                # different bids and submits both to the root.
                conflicting = sign(self._keys[pos], bid_payload(pos, second))
                self._settle(
                    run,
                    Grievance(
                        kind=GrievanceKind.CONTRADICTORY_MESSAGES,
                        accuser=arm.senders[k],
                        accused=pos,
                        conflicting=(message, conflicting),
                    ),
                )
                return True
        return False

    def _phase_2(self, run: ChainRun, arm: ChainArm, head_share: float) -> bool:
        """The root signs the head's ``G`` bundle (eq. 4.1) with its
        share ``head_share`` of the load; the bundles then cascade
        outward (eq. 4.2), every member re-verifying its sender's
        arithmetic against the signed evidence.  A failed check is
        grieved, fined, and aborts."""
        bids, w_bar, alpha_hat, share = run.bids, run.w_bar, run.alpha_hat, run.received_share
        g_messages = run.g_messages
        r, members, links = arm.root, arm.members, arm.links
        head = members[0]
        share[head] = head_share
        g_messages[head] = GMessage(
            recipient=head,
            d_prev=self._signed(r, "D", r, 1.0),
            d_self=self._signed(r, "D", head, share[head]),
            w_bar_prev=self._signed(r, "w_bar", r, w_bar[r]),
            w_prev=self._signed(r, "w", r, bids[r]),
            w_bar_self=self._signed(r, "w_bar", head, w_bar[head]),
        )
        first_checked = 0 if self.head_checks_g else 1
        last = len(members) - 1
        for k, pos in enumerate(members):
            agent = self.agents[pos]
            g = g_messages[pos]
            if self.enforcement and k >= first_checked and agent.phase2_validates():
                sender, attestor, z_link = arm.senders[k], arm.attestors[k], links[k]
                try:
                    verify_g_message(
                        g,
                        registry=self.registry,
                        recipient=pos,
                        own_w_bar=w_bar[pos],
                        z_link=z_link,
                        sender=sender,
                        attestor=attestor,
                    )
                except ProtocolViolation:
                    grievance = Grievance(
                        kind=GrievanceKind.INCONSISTENT_COMPUTATION,
                        accuser=pos,
                        accused=sender,
                        g_message=g,
                        z_link=z_link,
                        attestor=attestor,
                    )
                    self._settle(run, grievance, accuser_bid=run.bid_messages[pos])
                    return True
            if k < last:
                succ = members[k + 1]
                d_next = agent.phase2_d_next(share[pos] * (1.0 - alpha_hat[pos]))
                share[succ] = d_next
                echo = agent.phase2_echo_bid(w_bar[succ])
                g_messages[succ] = GMessage(
                    recipient=succ,
                    d_prev=g.d_self,  # relay the sender's signed D_pos
                    d_self=self._signed(pos, "D", succ, d_next),
                    w_bar_prev=g.w_bar_self,  # relay the sender's signed w_bar_pos
                    w_prev=self._signed(pos, "w", pos, bids[pos]),
                    w_bar_self=self._signed(pos, "w_bar", succ, echo),
                )
        return False

    def _flow(
        self, run: ChainRun, arm: ChainArm, inflow: float, assigned: np.ndarray
    ) -> list[float]:
        """Resolve ``arm``'s actual Phase III load flow from each member's
        retention choice, ``inflow`` reaching the head; returns the load
        each member retains.  The flow is deterministic, so it is resolved
        up front and handed to the simulator as a static plan."""
        members = arm.members
        last = len(members) - 1
        retained: list[float] = []
        for k, pos in enumerate(members):
            run.received_actual[pos] = inflow
            if k == last:
                kept = inflow
            else:
                expected_forward = run.received_share[members[k + 1]] * self.total_load
                choice = self.agents[pos].choose_retention(
                    float(assigned[pos]), float(inflow), float(expected_forward)
                )
                kept = float(np.clip(choice, 0.0, inflow))
            retained.append(kept)
            inflow -= kept
        return retained

    def _overload_grievance(
        self, run: ChainRun, arm: ChainArm, k: int, expected: float
    ) -> Grievance:
        pos = arm.members[k]
        return Grievance(
            kind=GrievanceKind.OVERLOAD,
            accuser=pos,
            accused=arm.senders[k],
            g_message=run.g_messages[pos],
            certificate=run.certificates[pos],
            meter_reading=run.meter_msgs[pos],
            expected_received=expected,
            z_link=arm.links[k],
            attestor=arm.attestors[k],
        )

    def _phase_3_evidence(
        self,
        run: ChainRun,
        arms: Sequence[ChainArm],
        block_ends: Sequence[int],
        actual_rates: np.ndarray,
        computed: np.ndarray,
    ) -> None:
        """Phase III evidence and grievances, which never abort.

        Each member holds the Λ certificate of the trailing block range
        of what reached it, inside its arm's range that ends at
        ``block_ends``; the root-signed meter records every agent.
        Honest victims grieve a provable overload; fabricated accusations
        (deviation (v)) come only where the accuser holds none.
        """
        device = run.lambda_device
        for arm, end in zip(arms, block_ends):
            for pos in arm.members:
                amount = device.quantize(run.received_actual[pos])
                first_block = end - int(round(amount * device.blocks_per_unit))
                run.certificates[pos] = device.issue(pos, first_block, amount)
        for pos in self.agents:
            run.meter_msgs[pos] = run.meter.record(pos, actual_rates[pos], float(computed[pos]))
        if not self.enforcement:
            return
        for arm in arms:
            for k, pos in enumerate(arm.members):
                expected = run.received_share[pos] * self.total_load
                certificate = run.certificates[pos]
                if (
                    provable_overload(run.received_actual[pos], expected, certificate, device)
                    and self.agents[pos].reports_overload()
                ):
                    self._settle(run, self._overload_grievance(run, arm, k, expected))
        for arm in arms:
            for k, pos in enumerate(arm.members):
                kind = self.agents[pos].fabricates_accusation()
                expected = run.received_share[pos] * self.total_load
                if kind is not None and not provable_overload(
                    run.received_actual[pos], expected, run.certificates[pos], device
                ):
                    self._settle(run, self._overload_grievance(run, arm, k, expected))

    def _phase_4(
        self,
        run: ChainRun,
        arms: Sequence[ChainArm],
        assigned: np.ndarray,
        computed: np.ndarray,
        actual_rates: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Payments: the root's reimbursement (eq. 4.3, ``U_0 = 0``), then
        each member bills its own payment
        (:func:`~repro.mechanism.payments.payment_breakdown`, with its
        sender as the predecessor) and forwards its evidence bundle; the
        root audits with probability ``q``.  Returns the correct and the
        billed payments."""
        r = self.root_index
        bids, w_bar, alpha_hat = run.bids, run.w_bar, run.alpha_hat
        run.ledger.pay(r, float(assigned[r]) * self.root_rate, "root reimbursement")
        auditor = Auditor(self.audit_probability, self.fine, self.rng)
        recompute = partial(
            recompute_payment_from_proof,
            registry=self.registry,
            meter=run.meter,
            lambda_device=run.lambda_device,
            link_rates=self.z,
            n_processors=bids.size,
            total_load=self.total_load,
            meter_signer=r,
        )
        correct_q = np.zeros(bids.size)
        billed_q = np.zeros(bids.size)
        for arm in arms:
            members, links = arm.members, arm.links
            last = len(members) - 1
            for k, pos in enumerate(members):
                agent = self.agents[pos]
                terminal = k == last
                breakdown = payment_breakdown(
                    proc=pos,
                    is_terminal=terminal,
                    assigned=float(assigned[pos]),
                    computed=float(computed[pos]),
                    actual_rate=float(actual_rates[pos]),
                    own_bid=float(bids[pos]),
                    own_w_bar=float(w_bar[pos]),
                    own_alpha_hat=float(alpha_hat[pos]),
                    predecessor_bid=float(bids[arm.senders[k]]),
                    z_link=links[k],
                )
                correct_q[pos] = breakdown.payment
                bill = agent.phase4_bill(breakdown.payment)
                billed_q[pos] = bill
                self._bill(run, pos, bill)
                if not self.enforcement:
                    continue
                succ = None if terminal else members[k + 1]
                proof = PaymentProof(
                    proc=pos,
                    g_message=run.g_messages[pos],
                    successor_bid=None if succ is None else run.bid_messages[succ],
                    own_bid=self._signed(pos, "w", pos, bids[pos]),
                    meter=run.meter_msgs[pos],
                    certificate=run.certificates[pos],
                )
                # The agent forwards its own evidence bundle; tampering
                # here (meter/Λ forgery) is what the audit recomputation
                # is designed to expose.
                proof = agent.phase4_proof(proof)
                record = auditor.audit(
                    pos,
                    bill,
                    proof,
                    partial(
                        recompute,
                        is_terminal=terminal,
                        successor_signer=succ,
                        z_next=None if terminal else links[k + 1],
                        z_prev=links[k],
                    ),
                )
                self._record_audit(run, record)
        return correct_q, billed_q
