"""Unit tests for signed messages and canonical serialization.

``tests/data/canonical_bytes.json`` pins the canonical encoding and the
signatures of :func:`golden_payloads` byte for byte.  It was written by
the encoder before payloads were sealed at signing; rewrite it (run this
module as a script) only for a deliberate change of the format.
"""

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import sys
from enum import IntEnum

import numpy as np
import pytest

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signing import SignedMessage, canonical_bytes, dsm, sign, verify
from repro.exceptions import ForgedSignatureError, MalformedMessageError
from repro.protocol.messages import GMessage, bid_payload, value_payload
from repro.protocol.meter import MeterReading

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "data", "canonical_bytes.json")


@pytest.fixture
def pki():
    registry, pairs = KeyRegistry.for_processors(3, seed=b"test")
    return registry, pairs


class TestCanonicalBytes:
    def test_deterministic(self):
        payload = {"b": 2, "a": [1.5, "x", None, True]}
        assert canonical_bytes(payload) == canonical_bytes(payload)

    def test_dict_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_distinguishes_types(self):
        # 1 (int) vs 1.0 (float) vs "1" (str) vs True must all differ.
        values = [1, 1.0, "1", True]
        encodings = {canonical_bytes(v) for v in values}
        assert len(encodings) == len(values)

    def test_float_exactness(self):
        # Two nearby floats must not collide.
        a = 0.1 + 0.2
        b = 0.3
        assert a != b
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_nan_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes(float("nan"))

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes({1: "x"})

    def test_nested_structures(self):
        payload = {"list": [[1, 2], {"inner": (3, 4)}], "bytes": b"\x00\xff"}
        assert isinstance(canonical_bytes(payload), bytes)

    def test_no_ambiguity_between_adjacent_strings(self):
        # ["ab", "c"] vs ["a", "bc"] must encode differently
        assert canonical_bytes(["ab", "c"]) != canonical_bytes(["a", "bc"])


class TestSignVerify:
    def test_roundtrip(self, pki):
        registry, pairs = pki
        msg = sign(pairs[1], {"type": "bid", "value": 3.5})
        assert msg.verify(registry)
        assert verify(msg, registry, expected_signer=1) is msg

    def test_dsm_alias(self, pki):
        registry, pairs = pki
        assert dsm(pairs[0], 1.0).verify(registry)

    def test_tampered_payload_fails(self, pki):
        registry, pairs = pki
        msg = sign(pairs[1], {"value": 3.5})
        forged = SignedMessage(signer=1, payload={"value": 99.0}, signature=msg.signature)
        assert not forged.verify(registry)
        with pytest.raises(ForgedSignatureError):
            forged.require_valid(registry)

    def test_wrong_signer_claim_fails(self, pki):
        registry, pairs = pki
        msg = sign(pairs[1], {"value": 3.5})
        stolen = SignedMessage(signer=2, payload=msg.payload, signature=msg.signature)
        assert not stolen.verify(registry)

    def test_expected_signer_mismatch(self, pki):
        registry, pairs = pki
        msg = sign(pairs[1], {"value": 3.5})
        with pytest.raises(MalformedMessageError):
            verify(msg, registry, expected_signer=2)

    def test_non_message_rejected(self, pki):
        registry, _ = pki
        with pytest.raises(MalformedMessageError):
            verify({"not": "a message"}, registry)

    def test_content_digest_distinguishes_payloads(self, pki):
        _, pairs = pki
        a = sign(pairs[0], {"v": 1.0})
        b = sign(pairs[0], {"v": 2.0})
        assert a.content_digest() != b.content_digest()

    def test_nested_signed_message_payload(self, pki):
        registry, pairs = pki
        inner = sign(pairs[2], {"v": 1.0})
        outer = sign(pairs[1], {"relay": inner})
        assert outer.verify(registry)
        # Tampering with the inner message breaks the outer signature.
        tampered_inner = SignedMessage(signer=2, payload={"v": 9.0}, signature=inner.signature)
        tampered = SignedMessage(signer=1, payload={"relay": tampered_inner}, signature=outer.signature)
        assert not tampered.verify(registry)


class TestSealedPayloads:
    """A signed payload cannot change under its signature: mutating it
    either raises or makes the message fail verification."""

    MUTATIONS = {
        "set_top_level_key": lambda p: p.__setitem__("v", 2.0),
        "add_top_level_key": lambda p: p.__setitem__("extra", 1),
        "delete_top_level_key": lambda p: p.__delitem__("v"),
        "update": lambda p: p.update(v=2.0),
        "nested_list_append": lambda p: p["lst"].append(3),
        "nested_list_item": lambda p: p["lst"].__setitem__(0, 9),
        "nested_dict_item": lambda p: p["sub"].__setitem__("k", 9.5),
        "nested_dict_setdefault": lambda p: p["sub"].setdefault("new", 1),
        "deep_list_in_dict": lambda p: p["sub"]["deep"].append(None),
    }

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_raises_or_fails_verification(self, pki, name):
        registry, pairs = pki
        msg = sign(pairs[1], {"v": 1.0, "lst": [1, 2], "sub": {"k": 0.5, "deep": [0.25]}})
        try:
            self.MUTATIONS[name](msg.payload)
        except (TypeError, AttributeError):
            assert msg.verify(registry)
        else:
            assert not msg.verify(registry)

    def test_mutating_the_signed_original_does_not_reach_the_message(self, pki):
        registry, pairs = pki
        original = {"v": 1.0, "lst": [1, 2]}
        msg = sign(pairs[1], original)
        original["v"] = 2.0
        original["lst"].append(3)
        assert msg.verify(registry)
        assert canonical_bytes(msg.payload) == canonical_bytes({"v": 1.0, "lst": [1, 2]})

    def test_replace_with_doctored_payload_fails(self, pki):
        registry, pairs = pki
        msg = sign(pairs[1], {"type": "meter", "actual_rate": 1.5})
        doctored = dict(msg.payload)
        doctored["actual_rate"] = 3.0
        assert not dataclasses.replace(msg, payload=doctored).verify(registry)
        assert dataclasses.replace(msg).verify(registry)

    def test_directly_built_forgery_fails(self, pki):
        registry, pairs = pki
        msg = sign(pairs[1], {"v": 1.0, "lst": [1, 2]})
        forged = SignedMessage(signer=1, payload={**msg.payload, "v": 9.0}, signature=msg.signature)
        assert not forged.verify(registry)
        assert forged.content_digest() != msg.content_digest()

    def test_equality_ignores_stored_bytes(self, pki):
        registry, pairs = pki
        msg = sign(pairs[1], {"v": 1.0, "lst": [1, 2]})
        rebuilt = SignedMessage(signer=msg.signer, payload=msg.payload, signature=msg.signature)
        assert msg == rebuilt
        assert rebuilt.verify(registry)
        assert rebuilt.content_digest() == msg.content_digest()


def _embedded_messages(value, found):
    """Every SignedMessage reachable from ``value``, depth first."""
    if isinstance(value, SignedMessage):
        found.append(value)
        _embedded_messages(value.payload, found)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _embedded_messages(getattr(value, f.name), found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _embedded_messages(item, found)
    elif isinstance(value, dict):
        for item in value.values():
            _embedded_messages(item, found)
    return found


def _scalar_outcome(spec: str):
    from repro.agents.strategies import TruthfulAgent
    from repro.mechanism.dls_lbl import DLSLBLMechanism
    from repro.mechanism.population import make_deviant

    w = [1.0, 2.0, 1.5, 3.0, 2.5]
    agents = [TruthfulAgent(i, w[i]) for i in range(1, 5)]
    deviant = make_deviant(spec, w[1:])
    agents[deviant.index - 1] = deviant
    mechanism = DLSLBLMechanism(
        np.array([0.2, 0.3, 0.1, 0.4]), w[0], agents, audit_probability=0.5, rng=np.random.default_rng(3)
    )
    return mechanism.registry, mechanism.run()


class TestOutcomeRoundTrip:
    """Scalar outcomes holding grievances survive pickle and deepcopy:
    every embedded message still verifies and compares equal, and a
    copy carries no stored bytes."""

    @pytest.mark.parametrize(
        ("spec", "evidence"),
        [("2:contradict", "conflicting"), ("2:shed:0.5", "g_message")],
    )
    @pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
    def test_round_trip(self, spec, evidence, clone):
        registry, outcome = _scalar_outcome(spec)
        assert any(getattr(a.grievance, evidence) is not None for a in outcome.adjudications)
        copied = (
            pickle.loads(pickle.dumps(outcome)) if clone == "pickle" else copy.deepcopy(outcome)
        )
        before = _embedded_messages(outcome.adjudications, [])
        after = _embedded_messages(copied.adjudications, [])
        assert before and len(after) == len(before)
        for original, clone_msg in zip(before, after):
            assert clone_msg == original
            assert canonical_bytes(clone_msg) == canonical_bytes(original)
            assert clone_msg._canonical is None
            assert clone_msg.verify(registry)
            if isinstance(clone_msg.payload, dict):
                with pytest.raises(TypeError):
                    clone_msg.payload["type"] = "forged"
        assert [a.substantiated for a in copied.adjudications] == [
            a.substantiated for a in outcome.adjudications
        ]


class _Slot(IntEnum):
    D = 3


def golden_payloads() -> dict:
    """Named payloads covering every branch of the encoder."""
    keys = {i: KeyPair.generate(i, seed=b"golden") for i in range(4)}
    g = GMessage(
        recipient=2,
        d_prev=sign(keys[0], value_payload("D", 1, 0.7)),
        d_self=sign(keys[1], value_payload("D", 2, 0.4)),
        w_bar_prev=sign(keys[0], value_payload("w_bar", 1, 1.5)),
        w_prev=sign(keys[1], value_payload("w", 1, 3.0)),
        w_bar_self=sign(keys[1], value_payload("w_bar", 2, 1.2)),
    )
    pair = (sign(keys[2], bid_payload(2, 1.25)), sign(keys[2], bid_payload(2, 2.5)))
    return {
        "bid": bid_payload(3, 2.375),
        "value": value_payload("D", 1, 0.1 + 0.2),
        "meter": MeterReading(proc=2, actual_rate=1.75, computed_amount=1 / 3).as_payload(),
        "g_payload": g.as_payload(),
        "grievance_pair": pair,
        "grievance_payload": {"type": "contradiction", "accused": 2, "conflicting": list(pair)},
        "signed_message": sign(keys[3], {"x": [1, (2.0, None)]}),
        "forged_nested": {"relay": SignedMessage(signer=1, payload={"v": [1.0]}, signature="00" * 32)},
        "bool": [True, False],
        "int_enum": {"slot": _Slot.D},
        "np_float64": np.float64(0.1),
        "neg_zero": -0.0,
        "inf": [float("inf"), float("-inf")],
        "subnormal": [5e-324, 2.5e-310, -1e-310],
        "unicode": {"naïve": "π ≈ 3.14159 ✓ Ωμέγα 🙂"},
        "bytes": b"\x00\xff\x10;",
        "ints": [0, -7, 2**70],
        "none": None,
        "nested": [1, (2.5, [None, "x", b"y"]), [], (), {"k": [True, {"z": (0.5,)}]}],
        "empty": {"d": {}, "l": [], "t": (), "s": ""},
    }


def _golden_entry(key: KeyPair, payload) -> dict:
    return {
        "canonical_bytes": canonical_bytes(payload).hex(),
        "signature": sign(key, payload).signature,
    }


class TestGoldenCanonicalBytes:
    """The encoding and signatures match the recorded bytes exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)

    def test_covers_every_payload(self, golden):
        assert sorted(golden) == sorted(golden_payloads())

    @pytest.mark.parametrize("name", sorted(golden_payloads()))
    def test_bytes_and_signature(self, golden, name):
        key = KeyPair.generate(1, seed=b"golden")
        registry = KeyRegistry()
        registry.register(key)
        payload = golden_payloads()[name]
        assert _golden_entry(key, payload) == golden[name]
        msg = sign(key, payload)
        expected = bytes.fromhex(golden[name]["canonical_bytes"])
        assert canonical_bytes(msg.payload) == expected
        assert msg.content_digest() == hashlib.sha256(expected).hexdigest()
        assert msg.verify(registry)


if __name__ == "__main__":
    signing_key = KeyPair.generate(1, seed=b"golden")
    entries = {name: _golden_entry(signing_key, p) for name, p in golden_payloads().items()}
    json.dump(entries, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
