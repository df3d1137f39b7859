"""Unit tests for the simulated PKI (repro.crypto.keys)."""

import copy
import hashlib
import hmac
import pickle

import pytest

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.exceptions import UnknownSignerError


class TestKeyPair:
    def test_generate_is_deterministic_with_seed(self):
        a = KeyPair.generate(3, seed=b"seed")
        b = KeyPair.generate(3, seed=b"seed")
        assert a.public_key == b.public_key
        assert a.mac(b"payload") == b.mac(b"payload")

    def test_different_owners_get_different_keys(self):
        a = KeyPair.generate(1, seed=b"seed")
        b = KeyPair.generate(2, seed=b"seed")
        assert a.public_key != b.public_key

    def test_unseeded_generation_is_random(self):
        a = KeyPair.generate(1)
        b = KeyPair.generate(1)
        assert a.public_key != b.public_key

    def test_mac_depends_on_payload(self):
        pair = KeyPair.generate(0, seed=b"x")
        assert pair.mac(b"a") != pair.mac(b"b")

    def test_secret_not_in_repr(self):
        pair = KeyPair.generate(0, seed=b"x")
        assert pair._secret.hex() not in repr(pair)

    def test_mac_is_hmac_sha256(self):
        pair = KeyPair.generate(4, seed=b"x")
        for payload in (b"", b"a", b"payload" * 50):
            assert pair.mac(payload) == hmac.new(pair._secret, payload, hashlib.sha256).hexdigest()
        # Repeated MACs never feed one call's input into the next.
        assert pair.mac(b"a") == pair.mac(b"a")

    @pytest.mark.parametrize("clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy])
    def test_pickle_and_deepcopy(self, clone):
        pair = KeyPair.generate(2, seed=b"x")
        restored = clone(pair)
        assert restored == pair
        assert restored.mac(b"payload") == pair.mac(b"payload")


class TestKeyRegistry:
    def test_register_and_lookup(self):
        registry = KeyRegistry()
        pair = KeyPair.generate(5, seed=b"k")
        registry.register(pair)
        assert registry.public_key_of(5) == pair.public_key
        assert 5 in registry
        assert len(registry) == 1

    def test_unknown_owner_raises(self):
        registry = KeyRegistry()
        with pytest.raises(UnknownSignerError):
            registry.public_key_of(9)
        with pytest.raises(UnknownSignerError):
            registry.expected_mac(9, b"payload")

    def test_expected_mac_matches_owner_mac(self):
        registry = KeyRegistry()
        pair = KeyPair.generate(2, seed=b"k")
        registry.register(pair)
        assert registry.expected_mac(2, b"data") == pair.mac(b"data")

    def test_for_processors_builds_full_chain(self):
        registry, pairs = KeyRegistry.for_processors(4, seed=b"chain")
        assert len(registry) == 4
        assert [p.owner for p in pairs] == [0, 1, 2, 3]
        # All keys distinct.
        assert len({p.public_key for p in pairs}) == 4

    def test_key_rotation_replaces_old_key(self):
        registry = KeyRegistry()
        old = KeyPair.generate(1, seed=b"old")
        new = KeyPair.generate(1, seed=b"new")
        registry.register(old)
        registry.register(new)
        assert registry.public_key_of(1) == new.public_key
