"""Phase IV probabilistic payment audits.

Each processor computes and bills its own payment :math:`Q_j`.  With
probability :math:`q` the root requests ``Proof_j`` (eq. 4.12) and
recomputes the payment from the signed evidence plus its own meter and Λ
records; a missing or invalid proof, or a bill exceeding the recomputable
amount, costs the biller :math:`F/q` — so the *expected* penalty for
overcharging is :math:`q \\cdot F/q = F`, which exceeds any attainable
profit (Lemma 5.1 case (iv), after Mitchell & Teague [17]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.crypto.keys import KeyRegistry
from repro.mechanism.payments import payment_breakdown
from repro.protocol.lambda_device import LambdaDevice
from repro.protocol.messages import PaymentProof
from repro.protocol.meter import TamperProofMeter

__all__ = ["AuditRecord", "Auditor", "isclose", "recompute_payment_from_proof"]

#: Absolute tolerance when comparing a bill to the recomputed payment —
#: generous against floating-point noise, negligible against any
#: profitable overcharge.
BILL_TOL = 1e-6


def isclose(a: float, b: float) -> bool:
    """``np.isclose(a, b)`` for two Python floats, at default tolerances
    (``rtol=1e-5``, ``atol=1e-8``), without the array round trip."""
    return (abs(a - b) <= 1e-8 + 1e-5 * abs(b) and math.isfinite(b)) or a == b


@dataclass(frozen=True)
class AuditRecord:
    """Outcome of the (possible) audit of one bill."""

    proc: int
    challenged: bool
    billed: float
    recomputed: float | None
    proof_valid: bool
    fine: float
    reason: str = ""


def recompute_payment_from_proof(
    proof: PaymentProof,
    *,
    registry: KeyRegistry,
    meter: TamperProofMeter,
    lambda_device: LambdaDevice,
    link_rates: np.ndarray,
    n_processors: int,
    total_load: float = 1.0,
    is_terminal: bool | None = None,
    successor_signer: int | None = None,
    z_next: float | None = None,
    z_prev: float | None = None,
    meter_signer: int = 0,
) -> tuple[float | None, str]:
    """Root-side recomputation of :math:`Q_j` from ``Proof_j``.

    The trailing keyword overrides exist for the interior-origination
    mechanism, whose arms do not follow boundary-chain index order; the
    defaults reproduce DLS-LBL's conventions (terminal = ``P_m``,
    successor = ``j + 1``, links by chain index).

    Returns ``(payment, reason)``; ``payment`` is ``None`` when the proof
    itself is invalid (bad signatures, certificate mismatch, meter
    reading that contradicts the root's own record).
    """
    j = proof.proc
    m = n_processors - 1
    g = proof.g_message
    if is_terminal is None:
        is_terminal = j == m
    if successor_signer is None:
        successor_signer = j + 1

    # Signature checks on every component the computation uses.
    for component in (*g.components(), proof.own_bid, proof.meter):
        if not component.verify(registry):
            return None, f"proof component signed by {component.signer} fails verification"
    if proof.own_bid.signer != j or proof.meter.signer != meter_signer:
        return None, "proof components have wrong signers"
    if proof.successor_bid is not None:
        if not proof.successor_bid.verify(registry) or proof.successor_bid.signer != successor_signer:
            return None, "successor bid component invalid"

    # The meter reading must match the root's own record (the meter is
    # root-operated; a stale or substituted reading is invalid evidence).
    reading = TamperProofMeter.parse(proof.meter)
    own_record = meter.reading_for(j)
    if own_record is None or not isclose(own_record.actual_rate, reading.actual_rate):
        return None, "meter reading does not match the root's record"
    if not isclose(own_record.computed_amount, reading.computed_amount):
        return None, "metered amount does not match the root's record"

    # The Λ certificate bounds what the processor can claim it received.
    if not lambda_device.verify(proof.certificate) or proof.certificate.holder != j:
        return None, "load certificate fails Λ verification"

    own_bid = float(proof.own_bid.payload["value"])
    predecessor_bid = float(g.w_prev.payload["value"])
    d_self = float(g.d_self.payload["value"])

    if is_terminal:
        alpha_hat = 1.0
        w_bar = own_bid
    else:
        assert proof.successor_bid is not None
        w_bar_next = float(proof.successor_bid.payload["w_bar"])
        if z_next is None:
            z_next = float(link_rates[j])  # link j+1 has array index j
        alpha_hat = (w_bar_next + z_next) / (own_bid + w_bar_next + z_next)
        w_bar = alpha_hat * own_bid

    if z_prev is None:
        z_prev = float(link_rates[j - 1])
    assigned = d_self * alpha_hat * total_load
    breakdown = payment_breakdown(
        proc=j,
        is_terminal=is_terminal,
        assigned=assigned,
        computed=reading.computed_amount,
        actual_rate=reading.actual_rate,
        own_bid=own_bid,
        own_w_bar=w_bar,
        own_alpha_hat=alpha_hat,
        predecessor_bid=predecessor_bid,
        z_link=z_prev,
    )
    return breakdown.payment, "recomputed from proof"


class Auditor:
    """Draws challenges and levies the ``F/q`` penalty.

    Parameters
    ----------
    audit_probability:
        The challenge probability ``q`` (``0 < q <= 1``).
    fine:
        The base fine ``F``; failed audits cost ``F / q``.
    rng:
        Randomness source for the Bernoulli challenge draws.
    """

    def __init__(self, audit_probability: float, fine: float, rng: np.random.Generator) -> None:
        if not 0.0 < audit_probability <= 1.0:
            raise ValueError("audit probability q must be in (0, 1]")
        self.q = float(audit_probability)
        self.fine = float(fine)
        self.rng = rng

    @property
    def penalty(self) -> float:
        """The audit fine ``F/q``."""
        return self.fine / self.q

    def audit(
        self,
        proc: int,
        billed: float,
        proof: PaymentProof | None,
        recompute,
    ) -> AuditRecord:
        """Audit one bill.

        ``recompute`` is a callable ``(proof) -> (payment | None, reason)``
        — root-side payment recomputation.  A challenged processor whose
        proof is missing, invalid, or supports a smaller payment than it
        billed is fined ``F/q``.
        """
        challenged = bool(self.rng.random() < self.q)
        if not challenged:
            return AuditRecord(
                proc=proc, challenged=False, billed=billed,
                recomputed=None, proof_valid=True, fine=0.0, reason="not challenged",
            )
        if proof is None:
            return AuditRecord(
                proc=proc, challenged=True, billed=billed,
                recomputed=None, proof_valid=False, fine=self.penalty,
                reason="no proof produced",
            )
        recomputed, reason = recompute(proof)
        if recomputed is None:
            return AuditRecord(
                proc=proc, challenged=True, billed=billed,
                recomputed=None, proof_valid=False, fine=self.penalty, reason=reason,
            )
        if billed > recomputed + BILL_TOL:
            return AuditRecord(
                proc=proc, challenged=True, billed=billed,
                recomputed=recomputed, proof_valid=False, fine=self.penalty,
                reason=f"billed {billed} exceeds provable {recomputed}",
            )
        return AuditRecord(
            proc=proc, challenged=True, billed=billed,
            recomputed=recomputed, proof_valid=True, fine=0.0, reason="bill verified",
        )
