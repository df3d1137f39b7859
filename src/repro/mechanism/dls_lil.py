"""DLS-LIL: the interior-origination mechanism (paper Section 6 future
work, built as an extension).

The paper's DLS-LBL handles linear networks whose root is a *terminal*
processor; its conclusion announces mechanisms "for different network
architectures" as future work, the interior-rooted chain being the one
its own Section 2 defines.  DLS-LIL realizes it:

- the obedient root ``P_r`` sits mid-chain between a left and a right
  arm; each arm runs Phase I bottom-up exactly as in DLS-LBL;
- the root solves the two-child *star* over the arms' equivalent bids
  (the Fig. 3 reduction applied to whole arms) to fix its own share and
  the per-arm shares, trying both one-port service orders;
- each arm head verifies the root's split (recomputing the star from the
  signed bids) instead of the eq. 2.7 identity; all deeper processors
  run the standard ``G`` checks with arm-relative sender/attestor roles;
- Phase III distributes over the
  :func:`~repro.sim.interior_sim.simulate_interior_chain` model; Λ
  certificates, overload grievances and audits work per-arm;
- Phase IV reuses the DLS-LBL payment structure verbatim with arm-local
  predecessors (the head's predecessor is the root).

Why the payments carry over: an agent's utility at full speed is
``V + Q = B`` — the bonus — and the bonus (eq. 4.9) depends only on the
agent's pairwise reduction with its predecessor, *not* on the allocation
rule upstream.  Changing how the root splits load between arms therefore
cannot create an incentive to misreport; the empirical strategyproofness
sweeps in ``tests/integration/test_dls_lil.py`` confirm it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.agents.base import ProcessorAgent
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signing import SignedMessage, sign
from repro.dlt.star import solve_star
from repro.exceptions import InvalidNetworkError, ProtocolViolation
from repro.mechanism.audit import AuditRecord, Auditor, recompute_payment_from_proof
from repro.mechanism.dls_lbl import AgentReport
from repro.mechanism.ledger import PaymentLedger
from repro.mechanism.payments import payment_breakdown, recommended_fine
from repro.network.topology import StarNetwork
from repro.obs.metrics import get_registry
from repro.obs.perf import span as perf_span
from repro.obs.tracer import Tracer
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
from repro.sim.interior_sim import InteriorChainResult, simulate_interior_chain

__all__ = ["DLSLILMechanism", "InteriorOutcome", "verify_split"]


@dataclass
class _Arm:
    """One arm of the chain, ordered outward from the root.

    ``chain`` maps local position (0 = head) to chain index; ``links``
    are the arm-internal link times plus, at position 0, the root-to-head
    link.
    """

    side: str
    chain: np.ndarray  # local -> chain position
    root_link: float  # z between root and head
    inner_links: np.ndarray  # z between consecutive arm members, outward

    @property
    def size(self) -> int:
        return int(self.chain.size)


def verify_split(
    *,
    root_rate: float,
    arm_links: dict[str, float],
    arm_w_bars: dict[str, float],
    order: tuple[str, ...],
    claimed_share: float,
    side: str,
    total_load: float,
    rtol: float = 1e-9,
) -> bool:
    """The arm head's check of the root's star split.

    Recomputes the two-child star allocation from the signed arm bids and
    compares the claimed share for ``side``.  (The root is obedient, so
    in honest runs this always passes; it exists because the protocol
    verifies rather than trusts.)
    """
    sides = [s for s in ("left", "right") if s in arm_w_bars]
    w = np.array([root_rate] + [arm_w_bars[s] for s in sides])
    z = np.array([arm_links[s] for s in sides])
    star_order = tuple(sides.index(s) + 1 for s in order if s in arm_w_bars)
    schedule = solve_star(StarNetwork(w, z), order=star_order)
    expected = float(schedule.alpha[sides.index(side) + 1]) * total_load
    scale = max(abs(expected), 1.0)
    return abs(expected - claimed_share) <= rtol * scale


@dataclass
class InteriorOutcome:
    """Everything a DLS-LIL run produced (chain-position indexing)."""

    completed: bool
    aborted_phase: int | None
    root_index: int
    bids: np.ndarray  # chain order; root position holds w_r
    w_bar: np.ndarray  # per-position equivalent bids (root: star makespan)
    assigned: np.ndarray
    computed: np.ndarray
    actual_rates: np.ndarray
    order: tuple[str, ...]
    sim_result: InteriorChainResult | None
    adjudications: list[Adjudication]
    audits: list[AuditRecord]
    ledger: PaymentLedger
    reports: dict[int, AgentReport]
    makespan: float | None

    def utility(self, chain_index: int) -> float:
        if chain_index == self.root_index:
            return 0.0
        return self.reports[chain_index].utility


class DLSLILMechanism:
    """One configured instance of the interior-origination mechanism.

    Parameters
    ----------
    link_rates:
        Public link times ``z_1 .. z_n`` in chain order.
    root_index:
        Chain position ``r`` of the obedient root (``0 < r < n`` for a
        genuinely interior root; boundary values degenerate to one arm).
    root_rate:
        The root's true unit processing time.
    agents:
        Strategic agents for every chain position except ``root_index``;
        each agent's ``index`` must be its chain position.
    """

    def __init__(
        self,
        link_rates: Sequence[float],
        root_index: int,
        root_rate: float,
        agents: Sequence[ProcessorAgent],
        *,
        fine: float | None = None,
        audit_probability: float = 0.25,
        total_load: float = 1.0,
        rng: np.random.Generator | None = None,
        key_seed: bytes | None = b"dls-lil",
        tracer: Tracer | None = None,
    ) -> None:
        self.z = np.asarray(link_rates, dtype=np.float64)
        n = self.z.size
        if n == 0:
            raise InvalidNetworkError("need at least one link")
        if not 0 <= root_index <= n:
            raise InvalidNetworkError(f"root_index {root_index} out of range")
        expected = sorted(set(range(n + 1)) - {root_index})
        got = sorted(a.index for a in agents)
        if got != expected:
            raise InvalidNetworkError(
                f"agents must cover chain positions {expected}, got {got}"
            )
        self.n = n
        self.root_index = root_index
        self.root_rate = float(root_rate)
        self.agents = {a.index: a for a in agents}
        self.total_load = float(total_load)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.audit_probability = float(audit_probability)
        self.tracer = tracer

        self.registry, keys = KeyRegistry.for_processors(n + 1, seed=key_seed)
        self._keys: dict[int, KeyPair] = {pair.owner: pair for pair in keys}

        true_rates = np.array(
            [self.root_rate] + [a.true_rate for a in agents]
        )
        self.fine = (
            float(fine)
            if fine is not None
            else recommended_fine(true_rates, total_load=self.total_load, max_overcharge=10.0 * true_rates.max())
        )

        self.arms: list[_Arm] = []
        r = root_index
        if r >= 1:
            self.arms.append(
                _Arm(
                    side="left",
                    chain=np.arange(r - 1, -1, -1),
                    root_link=float(self.z[r - 1]),
                    inner_links=self.z[: r - 1][::-1].copy() if r >= 2 else np.empty(0),
                )
            )
        if r <= n - 1:
            self.arms.append(
                _Arm(
                    side="right",
                    chain=np.arange(r + 1, n + 1),
                    root_link=float(self.z[r]),
                    inner_links=self.z[r + 1 :].copy(),
                )
            )

    # ------------------------------------------------------------------

    def _span(self, kind: str, **attrs):
        """A tracer span, or a no-op context when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(kind, **attrs)

    def run(self) -> InteriorOutcome:
        """Execute the four phases and return the outcome.

        When a tracer is attached the run is wrapped in a ``run`` span
        (``topology="linear-interior"``, with the root position as
        ``root``).  Interior runs count under ``mechanism.lil_runs`` to
        keep the boundary-chain run counter untouched.
        """
        registry = get_registry()
        registry.inc("mechanism.lil_runs")
        with perf_span("mechanism_lil"), self._span(
            "run",
            topology="linear-interior",
            n=self.n,
            root=self.root_index,
            fine=self.fine,
            audit_probability=self.audit_probability,
            total_load=self.total_load,
        ) as run_span:
            outcome = self._run_protocol()
        if run_span is not None:
            run_span.set(completed=outcome.completed, makespan=outcome.makespan)
        return outcome

    def _run_protocol(self) -> InteriorOutcome:
        n = self.n
        r = self.root_index
        ledger = PaymentLedger(tracer=self.tracer)
        lambda_device = LambdaDevice(self.total_load)
        meter = TamperProofMeter(self._keys[r], owner=r)
        court = GrievanceCourt(
            self.registry, lambda_device, meter, self.z, self.fine, total_load=self.total_load
        )
        adjudications: list[Adjudication] = []

        bids = np.zeros(n + 1)
        bids[r] = self.root_rate
        for pos, agent in self.agents.items():
            bids[pos] = agent.choose_bid()

        # ---------------- Phase I: per-arm bottom-up bids -----------------
        w_bar = np.zeros(n + 1)
        alpha_hat = np.zeros(n + 1)
        bid_messages: dict[int, SignedMessage] = {}
        for arm in self.arms:
            k = arm.size
            for local in range(k - 1, -1, -1):
                pos = int(arm.chain[local])
                agent = self.agents[pos]
                if local == k - 1:
                    honest = bids[pos]
                else:
                    succ = int(arm.chain[local + 1])
                    tail = w_bar[succ] + float(arm.inner_links[local])
                    honest = tail / (bids[pos] + tail) * bids[pos]
                reported = agent.phase1_w_bar(honest)
                w_bar[pos] = reported
                if local == k - 1:
                    bids[pos] = reported  # arm terminal: w_bar IS the bid
                    alpha_hat[pos] = 1.0
                else:
                    alpha_hat[pos] = reported / bids[pos]
                message = sign(self._keys[pos], bid_payload(pos, reported))
                bid_messages[pos] = message
                second = agent.phase1_second_bid(reported)
                if second is not None and second != reported:
                    recipient = r if local == 0 else int(arm.chain[local - 1])
                    conflicting = sign(self._keys[pos], bid_payload(pos, second))
                    grievance = Grievance(
                        kind=GrievanceKind.CONTRADICTORY_MESSAGES,
                        accuser=recipient,
                        accused=pos,
                        conflicting=(message, conflicting),
                    )
                    adjudications.append(self._settle(court.adjudicate(grievance), ledger, r))
                    return self._aborted(1, bids, w_bar, adjudications, ledger)

        # ---------------- Root: the star split ----------------------------
        arm_links = {arm.side: arm.root_link for arm in self.arms}
        arm_w_bars = {arm.side: float(w_bar[int(arm.chain[0])]) for arm in self.arms}
        sides = [arm.side for arm in self.arms]
        star_w = np.array([self.root_rate] + [arm_w_bars[s] for s in sides])
        star_z = np.array([arm_links[s] for s in sides])
        star_net = StarNetwork(star_w, star_z)
        best = None
        orders = [(1,)] if len(sides) == 1 else [(1, 2), (2, 1)]
        for order in orders:
            sched = solve_star(star_net, order=order)
            if best is None or sched.makespan < best.makespan - 1e-15:
                best = sched
        assert best is not None
        order_names = tuple(sides[i - 1] for i in best.order)
        root_share = float(best.alpha[0]) * self.total_load
        arm_shares = {
            side: float(best.alpha[i + 1]) * self.total_load for i, side in enumerate(sides)
        }
        w_bar[r] = best.makespan
        alpha_hat[r] = float(best.alpha[0])

        # Heads verify the split against the signed bids (the root is
        # obedient, so this always passes in-protocol; the function itself
        # is unit-tested against tampered splits).
        for arm in self.arms:
            head = int(arm.chain[0])
            if self.agents[head].phase2_validates():
                ok = verify_split(
                    root_rate=self.root_rate,
                    arm_links=arm_links,
                    arm_w_bars=arm_w_bars,
                    order=order_names,
                    claimed_share=arm_shares[arm.side],
                    side=arm.side,
                    total_load=self.total_load,
                )
                assert ok, "obedient root produced an inconsistent split"

        # ---------------- Phase II: per-arm G cascades --------------------
        # D values travel as fractions of the total load (the paper's
        # convention; the court and the audit recomputation scale by
        # total_load).
        received_share = np.zeros(n + 1)
        received_share[r] = 1.0
        g_messages: dict[int, GMessage] = {}

        def scalar(signer: int, kind: str, proc: int, value: float) -> SignedMessage:
            return sign(self._keys[signer], value_payload(kind, proc, float(value)))

        for arm in self.arms:
            head = int(arm.chain[0])
            received_share[head] = arm_shares[arm.side] / self.total_load
            g_messages[head] = GMessage(
                recipient=head,
                d_prev=scalar(r, "D", r, 1.0),
                d_self=scalar(r, "D", head, received_share[head]),
                w_bar_prev=scalar(r, "w_bar", r, float(w_bar[r])),
                w_prev=scalar(r, "w", r, self.root_rate),
                w_bar_self=scalar(r, "w_bar", head, float(w_bar[head])),
            )
            for local in range(arm.size):
                pos = int(arm.chain[local])
                agent = self.agents[pos]
                g = g_messages[pos]
                if local >= 1 and agent.phase2_validates():
                    sender = int(arm.chain[local - 1])
                    attestor = r if local == 1 else int(arm.chain[local - 2])
                    z_link = float(arm.inner_links[local - 1])
                    try:
                        verify_g_message(
                            g,
                            registry=self.registry,
                            recipient=pos,
                            own_w_bar=float(w_bar[pos]),
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
                        verdict = court.adjudicate(grievance, accuser_bid=bid_messages[pos])
                        adjudications.append(self._settle(verdict, ledger, r))
                        return self._aborted(2, bids, w_bar, adjudications, ledger)
                if local < arm.size - 1:
                    succ = int(arm.chain[local + 1])
                    honest_d_next = received_share[pos] * (1.0 - alpha_hat[pos])
                    d_next = agent.phase2_d_next(honest_d_next)
                    received_share[succ] = d_next
                    echo = agent.phase2_echo_bid(float(w_bar[succ]))
                    g_messages[succ] = GMessage(
                        recipient=succ,
                        d_prev=g.d_self,
                        d_self=scalar(pos, "D", succ, d_next),
                        w_bar_prev=g.w_bar_self,
                        w_prev=scalar(pos, "w", pos, float(bids[pos])),
                        w_bar_self=scalar(pos, "w_bar", succ, echo),
                    )

        assigned = received_share * alpha_hat * self.total_load
        assigned[r] = root_share

        # ---------------- Phase III: distribution & computation ----------
        actual_rates = np.zeros(n + 1)
        actual_rates[r] = self.root_rate
        for pos, agent in self.agents.items():
            actual_rates[pos] = max(agent.choose_execution_rate(), agent.true_rate)

        arm_retained: dict[str, np.ndarray] = {}
        received_actual = np.zeros(n + 1)
        received_actual[r] = self.total_load
        for arm in self.arms:
            k = arm.size
            retained = np.zeros(k)
            inflow = arm_shares[arm.side]
            for local in range(k):
                pos = int(arm.chain[local])
                received_actual[pos] = inflow
                if local == k - 1:
                    retained[local] = inflow
                else:
                    succ = int(arm.chain[local + 1])
                    expected_forward = received_share[succ] * self.total_load
                    choice = self.agents[pos].choose_retention(
                        float(assigned[pos]), float(inflow), float(expected_forward)
                    )
                    retained[local] = float(np.clip(choice, 0.0, inflow))
                inflow -= retained[local]
            arm_retained[arm.side] = retained

        chain_w = np.where(actual_rates > 0, actual_rates, 1.0)
        sim_result = simulate_interior_chain(
            chain_w,
            self.z,
            r,
            root_share,
            arm_shares,
            arm_retained,
            order=order_names,
            speeds=chain_w,
            total_load=self.total_load,
        )
        computed = sim_result.computed

        # Λ certificates: disjoint block ranges per arm.
        certificates: dict[int, LoadCertificate] = {}
        offsets = {}
        cursor = 0
        for arm in self.arms:
            offsets[arm.side] = cursor
            cursor += int(round(arm_shares[arm.side] * lambda_device.blocks_per_unit))
        for arm in self.arms:
            for local in range(arm.size):
                pos = int(arm.chain[local])
                amount = lambda_device.quantize(received_actual[pos])
                certificates[pos] = lambda_device.issue(pos, offsets[arm.side], amount)

        meter_msgs: dict[int, SignedMessage] = {}
        for pos in self.agents:
            meter_msgs[pos] = meter.record(pos, float(actual_rates[pos]), float(computed[pos]))

        # Overload grievances (per arm; do not abort).
        for arm in self.arms:
            for local in range(arm.size):
                pos = int(arm.chain[local])
                expected = received_share[pos] * self.total_load
                if (
                    provable_overload(received_actual[pos], expected, certificates[pos], lambda_device)
                    and self.agents[pos].reports_overload()
                ):
                    sender = r if local == 0 else int(arm.chain[local - 1])
                    attestor = sender if local == 0 else (r if local == 1 else int(arm.chain[local - 2]))
                    z_link = arm.root_link if local == 0 else float(arm.inner_links[local - 1])
                    grievance = Grievance(
                        kind=GrievanceKind.OVERLOAD,
                        accuser=pos,
                        accused=sender,
                        g_message=g_messages[pos],
                        certificate=certificates[pos],
                        meter_reading=meter_msgs[pos],
                        expected_received=expected,
                        z_link=z_link,
                        attestor=attestor,
                    )
                    adjudications.append(self._settle(court.adjudicate(grievance), ledger, r))

        # Fabricated accusations (deviation (v)) — exculpated by the same
        # signed-commitment check as in DLS-LBL.
        for arm in self.arms:
            for local in range(arm.size):
                pos = int(arm.chain[local])
                agent = self.agents[pos]
                kind = agent.fabricates_accusation()
                expected = received_share[pos] * self.total_load
                if kind is not None and not provable_overload(
                    received_actual[pos], expected, certificates[pos], lambda_device
                ):
                    sender = r if local == 0 else int(arm.chain[local - 1])
                    attestor = sender if local == 0 else (r if local == 1 else int(arm.chain[local - 2]))
                    z_link = arm.root_link if local == 0 else float(arm.inner_links[local - 1])
                    grievance = Grievance(
                        kind=GrievanceKind.OVERLOAD,
                        accuser=pos,
                        accused=sender,
                        g_message=g_messages[pos],
                        certificate=certificates[pos],
                        meter_reading=meter_msgs[pos],
                        expected_received=expected,
                        z_link=z_link,
                        attestor=attestor,
                    )
                    adjudications.append(self._settle(court.adjudicate(grievance), ledger, r))

        # ---------------- Phase IV: payments ------------------------------
        ledger.pay(r, root_share * self.root_rate, "root reimbursement")
        auditor = Auditor(self.audit_probability, self.fine, self.rng)
        audits: list[AuditRecord] = []
        correct_q = np.zeros(n + 1)
        billed_q = np.zeros(n + 1)
        for arm in self.arms:
            k = arm.size
            for local in range(k):
                pos = int(arm.chain[local])
                agent = self.agents[pos]
                pred = r if local == 0 else int(arm.chain[local - 1])
                z_prev = arm.root_link if local == 0 else float(arm.inner_links[local - 1])
                is_terminal = local == k - 1
                breakdown = payment_breakdown(
                    proc=pos,
                    is_terminal=is_terminal,
                    assigned=float(assigned[pos]),
                    computed=float(computed[pos]),
                    actual_rate=float(actual_rates[pos]),
                    own_bid=float(bids[pos]),
                    own_w_bar=float(w_bar[pos]),
                    own_alpha_hat=float(alpha_hat[pos]),
                    predecessor_bid=float(bids[pred]),
                    z_link=z_prev,
                )
                correct_q[pos] = breakdown.payment
                bill = agent.phase4_bill(breakdown.payment)
                billed_q[pos] = bill
                if bill >= 0:
                    ledger.pay(pos, bill, "phase IV bill")
                else:
                    ledger.fine(pos, -bill, "phase IV bill (negative payment)")

                succ = None if is_terminal else int(arm.chain[local + 1])
                proof = PaymentProof(
                    proc=pos,
                    g_message=g_messages[pos],
                    successor_bid=None if succ is None else bid_messages.get(succ),
                    own_bid=scalar(pos, "w", pos, float(bids[pos])),
                    meter=meter_msgs[pos],
                    certificate=certificates[pos],
                )
                z_next = None if is_terminal else float(arm.inner_links[local])
                record = auditor.audit(
                    pos,
                    bill,
                    proof,
                    lambda p, succ=succ, z_next=z_next, z_prev=z_prev, term=is_terminal: recompute_payment_from_proof(
                        p,
                        registry=self.registry,
                        meter=meter,
                        lambda_device=lambda_device,
                        link_rates=self.z,
                        n_processors=n + 1,
                        total_load=self.total_load,
                        is_terminal=term,
                        successor_signer=succ,
                        z_next=z_next,
                        z_prev=z_prev,
                        meter_signer=r,
                    ),
                )
                audits.append(record)
                if record.fine > 0:
                    ledger.fine(pos, record.fine, f"audit penalty (P{pos})")

        reports = self._reports(
            bids, w_bar, actual_rates, assigned, computed, correct_q, billed_q, ledger
        )
        return InteriorOutcome(
            completed=True,
            aborted_phase=None,
            root_index=r,
            bids=bids,
            w_bar=w_bar,
            assigned=assigned,
            computed=computed,
            actual_rates=actual_rates,
            order=order_names,
            sim_result=sim_result,
            adjudications=adjudications,
            audits=audits,
            ledger=ledger,
            reports=reports,
            makespan=sim_result.makespan,
        )

    # ------------------------------------------------------------------

    def _settle(self, verdict: Adjudication, ledger: PaymentLedger, root: int) -> Adjudication:
        ledger.fine(verdict.fined, verdict.fine_amount, f"grievance fine ({verdict.grievance.kind.value})")
        if verdict.rewarded != root:
            ledger.pay(verdict.rewarded, verdict.reward_amount, f"grievance reward ({verdict.grievance.kind.value})")
        return verdict

    def _aborted(self, phase, bids, w_bar, adjudications, ledger) -> InteriorOutcome:
        zeros = np.zeros(self.n + 1)
        reports = self._reports(bids, w_bar, zeros, zeros, zeros, zeros, zeros, ledger)
        return InteriorOutcome(
            completed=False,
            aborted_phase=phase,
            root_index=self.root_index,
            bids=bids,
            w_bar=w_bar,
            assigned=zeros,
            computed=zeros,
            actual_rates=zeros,
            order=(),
            sim_result=None,
            adjudications=adjudications,
            audits=[],
            ledger=ledger,
            reports=reports,
            makespan=None,
        )

    def _reports(self, bids, w_bar, actual_rates, assigned, computed, correct_q, billed_q, ledger):
        reports: dict[int, AgentReport] = {}
        for pos, agent in self.agents.items():
            fines = sum(
                e.amount for e in ledger.entries_for(pos)
                if e.debtor == pos and "bill" not in e.memo
            )
            rewards = sum(
                e.amount for e in ledger.entries_for(pos)
                if e.creditor == pos and "bill" not in e.memo
            )
            valuation = -float(computed[pos]) * float(actual_rates[pos])
            reports[pos] = AgentReport(
                index=pos,
                strategy=agent.strategy_name,
                true_rate=agent.true_rate,
                bid=float(bids[pos]),
                w_bar=float(w_bar[pos]),
                actual_rate=float(actual_rates[pos]),
                assigned=float(assigned[pos]),
                computed=float(computed[pos]),
                valuation=valuation,
                payment_billed=float(billed_q[pos]),
                payment_correct=float(correct_q[pos]),
                fines=float(fines),
                rewards=float(rewards),
                utility=float(valuation + ledger.balance(pos)),
            )
        return reports
