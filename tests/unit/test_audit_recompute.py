"""Unit tests for root-side payment recomputation from Proof_j —
including adversarially tampered proofs."""

import numpy as np
import pytest

from repro.crypto.keys import KeyRegistry
from repro.crypto.signing import SignedMessage, sign
from repro.dlt.linear import phase1_bids, solve_linear_boundary
from repro.mechanism.audit import isclose, recompute_payment_from_proof
from repro.mechanism.payments import payment_breakdown
from repro.protocol.lambda_device import LambdaDevice
from repro.protocol.messages import GMessage, PaymentProof, bid_payload, value_payload
from repro.protocol.meter import TamperProofMeter


@pytest.fixture
def audit_setup(five_proc_network):
    """An honest post-run state: registry, meter, Λ, and a valid Proof_j
    for every strategic processor."""
    net = five_proc_network
    m = net.m
    registry, keys = KeyRegistry.for_processors(m + 1, seed=b"audit")
    alpha_hat, w_bar = phase1_bids(net)
    sched = solve_linear_boundary(net)
    device = LambdaDevice(1.0)
    meter = TamperProofMeter(keys[0])

    def scalar(signer, kind, proc, value):
        return sign(keys[signer], value_payload(kind, proc, float(value)))

    def honest_g(i):
        sender = i - 1
        attestor = max(sender - 1, 0)
        return GMessage(
            recipient=i,
            d_prev=scalar(attestor, "D", sender, sched.received[sender]),
            d_self=scalar(sender, "D", i, sched.received[i]),
            w_bar_prev=scalar(attestor, "w_bar", sender, w_bar[sender]),
            w_prev=scalar(sender, "w", sender, net.w[sender]),
            w_bar_self=scalar(sender, "w_bar", i, w_bar[i]),
        )

    proofs = {}
    for j in range(1, m + 1):
        amount = device.quantize(float(sched.received[j]))
        first = device.total_blocks - int(round(amount * device.blocks_per_unit))
        cert = device.issue(j, first, amount)
        meter_msg = meter.record(j, float(net.w[j]), float(sched.alpha[j]))
        proofs[j] = PaymentProof(
            proc=j,
            g_message=honest_g(j),
            successor_bid=(
                sign(keys[j + 1], bid_payload(j + 1, float(w_bar[j + 1])))
                if j < m
                else None
            ),
            own_bid=scalar(j, "w", j, float(net.w[j])),
            meter=meter_msg,
            certificate=cert,
        )

    def recompute(proof):
        return recompute_payment_from_proof(
            proof,
            registry=registry,
            meter=meter,
            lambda_device=device,
            link_rates=net.z,
            n_processors=m + 1,
        )

    return {
        "net": net,
        "registry": registry,
        "keys": keys,
        "sched": sched,
        "alpha_hat": alpha_hat,
        "w_bar": w_bar,
        "meter": meter,
        "device": device,
        "proofs": proofs,
        "recompute": recompute,
        "scalar": scalar,
    }


class TestHonestProofs:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_recomputation_matches_direct_breakdown(self, audit_setup, j):
        ctx = audit_setup
        net, sched = ctx["net"], ctx["sched"]
        payment, reason = ctx["recompute"](ctx["proofs"][j])
        assert payment is not None, reason
        expected = payment_breakdown(
            proc=j,
            is_terminal=(j == net.m),
            assigned=float(sched.alpha[j]),
            computed=float(sched.alpha[j]),
            actual_rate=float(net.w[j]),
            own_bid=float(net.w[j]),
            own_w_bar=float(ctx["w_bar"][j]),
            own_alpha_hat=float(ctx["alpha_hat"][j]),
            predecessor_bid=float(net.w[j - 1]),
            z_link=float(net.z[j - 1]),
        ).payment
        assert payment == pytest.approx(expected)


class TestTamperedProofs:
    def test_inflated_own_bid_changes_payment_but_not_validity(self, audit_setup):
        # A *consistently signed* different bid recomputes to a different
        # (smaller or larger) payment — the audit then compares it to the
        # bill; the proof itself remains structurally valid.
        ctx = audit_setup
        proof = ctx["proofs"][2]
        forged_bid = ctx["scalar"](2, "w", 2, float(ctx["net"].w[2]) * 2)
        tampered = PaymentProof(
            proc=2,
            g_message=proof.g_message,
            successor_bid=proof.successor_bid,
            own_bid=forged_bid,
            meter=proof.meter,
            certificate=proof.certificate,
        )
        payment, _ = ctx["recompute"](tampered)
        honest_payment, _ = ctx["recompute"](proof)
        assert payment is not None
        assert payment != pytest.approx(honest_payment)

    def test_unsigned_bid_rejected(self, audit_setup):
        ctx = audit_setup
        proof = ctx["proofs"][2]
        garbage = SignedMessage(signer=2, payload=value_payload("w", 2, 99.0), signature="00" * 32)
        tampered = PaymentProof(
            proc=2, g_message=proof.g_message, successor_bid=proof.successor_bid,
            own_bid=garbage, meter=proof.meter, certificate=proof.certificate,
        )
        payment, reason = ctx["recompute"](tampered)
        assert payment is None
        assert "fails verification" in reason

    def test_substituted_meter_reading_rejected(self, audit_setup):
        # Even a *correctly signed* meter message is rejected if it does
        # not match the root's own record (e.g. a stale reading from a
        # previous run claiming a faster rate).
        ctx = audit_setup
        proof = ctx["proofs"][2]
        stale = TamperProofMeter(ctx["keys"][0])
        stale_msg = stale.record(2, 0.5, float(ctx["sched"].alpha[2]))
        tampered = PaymentProof(
            proc=2, g_message=proof.g_message, successor_bid=proof.successor_bid,
            own_bid=proof.own_bid, meter=stale_msg, certificate=proof.certificate,
        )
        payment, reason = ctx["recompute"](tampered)
        assert payment is None
        assert "root's record" in reason

    def test_wrong_proc_bid_rejected(self, audit_setup):
        ctx = audit_setup
        proof = ctx["proofs"][2]
        someone_elses = ctx["scalar"](3, "w", 3, float(ctx["net"].w[3]))
        tampered = PaymentProof(
            proc=2, g_message=proof.g_message, successor_bid=proof.successor_bid,
            own_bid=someone_elses, meter=proof.meter, certificate=proof.certificate,
        )
        payment, reason = ctx["recompute"](tampered)
        assert payment is None

    def test_foreign_certificate_rejected(self, audit_setup):
        ctx = audit_setup
        proof = ctx["proofs"][2]
        tampered = PaymentProof(
            proc=2, g_message=proof.g_message, successor_bid=proof.successor_bid,
            own_bid=proof.own_bid, meter=proof.meter,
            certificate=ctx["proofs"][3].certificate,
        )
        payment, reason = ctx["recompute"](tampered)
        assert payment is None
        assert "certificate" in reason

    def test_wrong_successor_bid_signer_rejected(self, audit_setup):
        ctx = audit_setup
        proof = ctx["proofs"][2]
        wrong_successor = sign(ctx["keys"][4], bid_payload(4, 1.0))
        tampered = PaymentProof(
            proc=2, g_message=proof.g_message, successor_bid=wrong_successor,
            own_bid=proof.own_bid, meter=proof.meter, certificate=proof.certificate,
        )
        payment, reason = ctx["recompute"](tampered)
        assert payment is None
        assert "successor" in reason


class TestScalarIsClose:
    """The audit's scalar tolerance check agrees with ``np.isclose``."""

    BASE = [0.0, -0.0, 1.0, -1.0, 1e-8, 2e-8, 1e-3, 3.0, 1e300, 1.7976931348623157e308,
            float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324, 2.2250738585072014e-308]

    def test_matches_numpy_on_grid(self):
        values = set(self.BASE)
        for v in self.BASE:
            for scale in (1 + 1e-5, 1 - 1e-5, 1 + 2e-5, 1 + 1e-9):
                values.add(v * scale)
            values.update((v + 1e-8, v - 1e-8, v + 2e-8))
        values = sorted(values, key=repr)
        for a in values:
            for b in values:
                assert isclose(a, b) == bool(np.isclose(a, b)), (a, b)
