"""Root-side grievance adjudication (Phases I–III of the mechanism).

The root ``P_0`` is obedient and acts as the court: a processor submits a
:class:`~repro.protocol.messages.Grievance` with evidence, the root
either *substantiates* the claim (fines the accused ``F``, rewards the
accuser ``F``) or *exculpates* the accused (fines the accuser ``F`` for a
false accusation, rewards the accused ``F``) — exactly the symmetric
penalty scheme of Section 4.  Substantiated overload grievances
additionally levy the surcharge
:math:`(\\tilde\\alpha_{i+1} - \\alpha_{i+1}) \\tilde w_{i+1}` that funds
the victim's recompense ``E`` in Phase IV.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.crypto.keys import KeyRegistry
from repro.crypto.signing import SignedMessage
from repro.exceptions import ProtocolViolation
from repro.obs.metrics import get_registry
from repro.protocol.lambda_device import LambdaDevice, LoadCertificate
from repro.protocol.messages import Grievance, GrievanceKind
from repro.protocol.meter import TamperProofMeter
from repro.protocol.verification import verify_g_message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mechanism.ledger import PaymentLedger
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

__all__ = [
    "Adjudication",
    "GrievanceCourt",
    "adjudicate_forgery",
    "adjudicate_liveness",
    "apply_adjudication",
    "certifies_overload",
    "levy",
    "provable_overload",
]

#: Slack when comparing certified received load against the assignment.
OVERLOAD_TOL = 1e-9

#: Raw-load slack before a processor files an overload grievance (float
#: noise in the flow arithmetic).
LOAD_TOL = 1e-7


def certifies_overload(certified: float, expected_raw: float, lambda_device: LambdaDevice) -> bool:
    """The court's overload test: ``certified`` load exceeds the
    assignment ``expected_raw`` quantized to the Λ block grid."""
    return certified > lambda_device.quantize(expected_raw) + OVERLOAD_TOL


def provable_overload(
    received: float,
    expected: float,
    certificate: LoadCertificate,
    lambda_device: LambdaDevice,
) -> bool:
    """Whether a processor that received ``received`` load against an
    ``expected`` assignment holds an overload the court substantiates:
    the raw excess clears :data:`LOAD_TOL` *and* its Λ certificate
    proves it (:func:`certifies_overload`).  An honest victim files
    exactly then, and a false accuser fabricates exactly when it does
    not, so no victim files a grievance the court must reject (a shed
    its certificate cannot show on the block grid).  The certificate is
    read only after the raw check passes."""
    return received > expected + LOAD_TOL and certifies_overload(
        certificate.amount, expected, lambda_device
    )


@dataclass(frozen=True)
class Adjudication:
    """Outcome of one grievance.

    ``surcharge`` is the extra-work cost added to the offender's fine for
    substantiated overloads (zero otherwise).
    """

    grievance: Grievance
    substantiated: bool
    fined: int
    rewarded: int
    fine_amount: float
    reward_amount: float
    surcharge: float = 0.0
    reason: str = ""


def apply_adjudication(
    verdict: Adjudication,
    ledger: "PaymentLedger",
    *,
    tracer: "Tracer | None" = None,
    root: int = 0,
) -> Adjudication:
    """Apply an adjudication's transfers to ``ledger``.

    Every verdict — substantiated or frivolous — goes through here, so
    the fined party (accused *or* accuser) always produces the same
    ledger fine entry, metrics and trace events regardless of which
    caller adjudicated it.  The root needs no incentives, so rewards
    addressed to it are retained by the mechanism (its utility stays 0
    per eq. 4.3).  ``root`` names the root's index: 0 on a boundary
    chain, ``r`` on an interior-rooted one, where position 0 is a
    strategic agent whose rewards are paid.  Module-level so settlement
    needs no court instance: the resilient runtime applies verdicts the
    same way the mechanisms do.
    """
    registry = get_registry()
    registry.inc("mechanism.grievances")
    if verdict.substantiated:
        registry.inc("mechanism.grievances_substantiated")
    if tracer is not None:
        tracer.event(
            "grievance",
            grievance_kind=verdict.grievance.kind.value,
            accuser=verdict.grievance.accuser,
            accused=verdict.grievance.accused,
            substantiated=verdict.substantiated,
            fined=verdict.fined,
            fine_amount=verdict.fine_amount,
            rewarded=verdict.rewarded,
            reward_amount=verdict.reward_amount,
            reason=verdict.reason,
        )
    kind = verdict.grievance.kind.value
    if verdict.fine_amount > 0:
        levy(ledger, registry, verdict.fined, verdict.fine_amount, f"grievance fine ({kind})",
             source="grievance", reason=kind, tracer=tracer)
    else:
        ledger.fine(verdict.fined, verdict.fine_amount, f"grievance fine ({kind})")
    if verdict.rewarded != root:
        ledger.pay(verdict.rewarded, verdict.reward_amount, f"grievance reward ({kind})")
    return verdict


def levy(
    ledger: "PaymentLedger", metrics: "MetricsRegistry", proc: int, amount: float, memo: str,
    *, source: str, reason: str, tracer: "Tracer | None" = None,
) -> None:
    """Fine ``proc``: the ledger entry, the ``mechanism.fines`` counters
    and a ``fine`` trace event — for grievance verdicts, audit penalties,
    the star root's own detections and the runtime's meter audit."""
    ledger.fine(proc, amount, memo)
    metrics.inc("mechanism.fines")
    metrics.inc("mechanism.fine_volume", amount)
    if tracer is not None:
        tracer.event("fine", proc=proc, amount=amount, source=source, reason=reason)


def adjudicate_liveness(
    accuser: int,
    accused: int,
    accused_alive: bool,
    fine: float,
    *,
    reason: str = "",
) -> Adjudication:
    """Adjudicate a runtime crash accusation against the root's records.

    The root detects crashes itself (heartbeat deadlines in
    :mod:`repro.runtime.session`), so a peer accusation is checked
    against evidence the root already holds rather than against anything
    the accuser supplies.  A claim about a processor the root knows to
    be live is a *false accusation*: the accuser is fined ``F`` and the
    framed processor rewarded ``F`` — the Section 4 symmetric scheme.
    A claim about a processor the root already declared failed is
    *redundant*: substantiated, but with zero transfers (the root needed
    no extra evidence, so the accusation earns nothing).
    """
    grievance = Grievance(
        kind=GrievanceKind.CRASH_ACCUSATION, accuser=accuser, accused=accused
    )
    if accused_alive:
        return Adjudication(
            grievance=grievance,
            substantiated=False,
            fined=accuser,
            rewarded=accused,
            fine_amount=float(fine),
            reward_amount=float(fine),
            reason=reason or "accused responded to the root's liveness probe",
        )
    return Adjudication(
        grievance=grievance,
        substantiated=True,
        fined=accused,
        rewarded=accuser,
        fine_amount=0.0,
        reward_amount=0.0,
        reason=reason or "accused already failed per root records — redundant",
    )


def adjudicate_forgery(
    signer: int,
    claimed: int,
    fine: float,
    *,
    reason: str = "",
) -> Adjudication:
    """Adjudicate a forged/replayed relay message attributed to its signer.

    A relay message whose authenticated signer differs from the
    originator named in the payload is proof of forgery by the signer
    (signatures cannot be fabricated in this model, so the channel
    attribution is exact): the signer is fined ``F``; the root keeps the
    reward (its utility stays 0 per eq. 4.3, so ``rewarded=0`` and
    :func:`apply_adjudication` retains it for the mechanism).
    """
    grievance = Grievance(
        kind=GrievanceKind.FORGED_MESSAGE, accuser=0, accused=signer
    )
    return Adjudication(
        grievance=grievance,
        substantiated=True,
        fined=signer,
        rewarded=0,
        fine_amount=float(fine),
        reward_amount=float(fine),
        reason=reason or f"message claims originator {claimed} but is signed by {signer}",
    )


class GrievanceCourt:
    """The root's adjudication service.

    Parameters
    ----------
    registry:
        The PKI, for verifying evidence signatures.
    lambda_device:
        The Λ device, for verifying load certificates.
    meter:
        The tamper-proof meter, for cross-checking claimed readings.
    link_rates:
        Public link times ``z_1 .. z_m`` (links are obedient).
    fine:
        The quantity ``F`` — must exceed any profit attainable by
        cheating (see :func:`repro.mechanism.payments.recommended_fine`).
    """

    def __init__(
        self,
        registry: KeyRegistry,
        lambda_device: LambdaDevice,
        meter: TamperProofMeter,
        link_rates,
        fine: float,
        *,
        total_load: float = 1.0,
    ) -> None:
        self.registry = registry
        self.lambda_device = lambda_device
        self.meter = meter
        self.link_rates = link_rates
        self.fine = float(fine)
        self.total_load = float(total_load)

    def adjudicate(self, grievance: Grievance, *, accuser_bid: SignedMessage | None = None) -> Adjudication:
        """Decide a grievance.

        ``accuser_bid`` is the accuser's own Phase I signed bid, needed to
        re-run the echo check for computation grievances.
        """
        if grievance.kind is GrievanceKind.CONTRADICTORY_MESSAGES:
            ok, reason = self._check_contradictory(grievance)
        elif grievance.kind is GrievanceKind.INCONSISTENT_COMPUTATION:
            ok, reason = self._check_computation(grievance, accuser_bid)
        elif grievance.kind is GrievanceKind.OVERLOAD:
            ok, reason = self._check_overload(grievance)
        else:
            # Runtime-layer kinds (forgery, crash accusations) carry
            # evidence the root itself holds — liveness records, channel
            # attribution — not anything this court can inspect.
            raise ValueError(
                f"grievance kind {grievance.kind.value!r} is adjudicated by the "
                "resilient runtime (adjudicate_liveness / adjudicate_forgery), "
                "not the mechanism court"
            )

        surcharge = 0.0
        if ok and grievance.kind is GrievanceKind.OVERLOAD:
            surcharge = self._overload_surcharge(grievance)

        if ok:
            return Adjudication(
                grievance=grievance,
                substantiated=True,
                fined=grievance.accused,
                rewarded=grievance.accuser,
                fine_amount=self.fine + surcharge,
                reward_amount=self.fine,
                surcharge=surcharge,
                reason=reason,
            )
        return Adjudication(
            grievance=grievance,
            substantiated=False,
            fined=grievance.accuser,
            rewarded=grievance.accused,
            fine_amount=self.fine,
            reward_amount=self.fine,
            surcharge=0.0,
            reason=reason,
        )

    # -- evidence checks ---------------------------------------------------

    def _check_contradictory(self, grievance: Grievance) -> tuple[bool, str]:
        if grievance.conflicting is None:
            return False, "no conflicting messages supplied"
        first, second = grievance.conflicting
        for msg in (first, second):
            if msg.signer != grievance.accused:
                return False, f"evidence signed by {msg.signer}, not the accused"
            if not msg.verify(self.registry):
                return False, "evidence signature invalid"
        if first.content_digest() == second.content_digest():
            return False, "messages are identical — no contradiction"
        # Same protocol slot (both bids, or both D-values for the same
        # successor, ...) signed by the accused with different content.
        f_type = first.payload.get("type") if isinstance(first.payload, dict) else None
        s_type = second.payload.get("type") if isinstance(second.payload, dict) else None
        if f_type != s_type:
            return False, "messages are for different protocol slots"
        return True, "two authentic messages with contradictory content"

    def _check_computation(self, grievance: Grievance, accuser_bid: SignedMessage | None) -> tuple[bool, str]:
        if grievance.g_message is None:
            return False, "no G message supplied"
        g = grievance.g_message
        if g.recipient != grievance.accuser:
            return False, "grievance parties do not match the G message"
        if grievance.z_link is None and grievance.accused != grievance.accuser - 1:
            return False, "grievance parties do not match the G message"
        if accuser_bid is None or accuser_bid.signer != grievance.accuser:
            return False, "accuser did not supply its own signed bid"
        if not accuser_bid.verify(self.registry):
            return False, "accuser bid signature invalid"
        own_w_bar = float(accuser_bid.payload["w_bar"])
        i = grievance.accuser
        z_link = (
            float(grievance.z_link)
            if grievance.z_link is not None
            else float(self.link_rates[i - 1])
        )
        try:
            verify_g_message(
                g,
                registry=self.registry,
                recipient=i,
                own_w_bar=own_w_bar,
                z_link=z_link,
                sender=grievance.accused,
                attestor=grievance.attestor,
            )
        except ProtocolViolation as exc:
            return True, f"checks fail as claimed: {exc}"
        return False, "G message passes all checks — accusation unfounded"

    def _expected_received(self, grievance: Grievance) -> float | None:
        """The load the accuser was *supposed* to receive, taken from the
        signed ``D_i`` the accused itself committed to in Phase II — never
        from the accuser's (unverifiable) claim."""
        g = grievance.g_message
        if g is None:
            return None
        d_self = g.d_self
        if d_self.signer != grievance.accused or not d_self.verify(self.registry):
            return None
        payload = d_self.payload
        if not isinstance(payload, dict) or payload.get("type") != "D":
            return None
        if payload.get("proc") != grievance.accuser:
            return None
        return float(payload["value"]) * self.total_load

    def _check_overload(self, grievance: Grievance) -> tuple[bool, str]:
        cert = grievance.certificate
        if cert is None:
            return False, "missing certificate"
        if cert.holder != grievance.accuser:
            return False, "certificate belongs to another processor"
        if not self.lambda_device.verify(cert):
            return False, "load certificate fails Λ verification"
        expected_raw = self._expected_received(grievance)
        if expected_raw is None:
            return False, "no signed D commitment from the accused in evidence"
        expected = self.lambda_device.quantize(expected_raw)
        if not certifies_overload(cert.amount, expected_raw, self.lambda_device):
            return False, (
                f"certified load {cert.amount} does not exceed assignment {expected}"
            )
        return True, f"received {cert.amount} > assigned {expected}"

    def _overload_surcharge(self, grievance: Grievance) -> float:
        """Extra-work cost (alpha~ - alpha) * w~ using the victim's signed
        meter reading."""
        assert grievance.certificate is not None
        expected_raw = self._expected_received(grievance)
        assert expected_raw is not None
        extra = grievance.certificate.amount - self.lambda_device.quantize(expected_raw)
        rate = None
        if grievance.meter_reading is not None and grievance.meter_reading.verify(self.registry):
            rate = float(grievance.meter_reading.payload["actual_rate"])
        if rate is None:
            reading = self.meter.reading_for(grievance.accuser)
            rate = reading.actual_rate if reading is not None else 0.0
        return max(extra, 0.0) * rate
