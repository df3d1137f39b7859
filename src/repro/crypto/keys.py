"""Key material and the trusted key registry (the simulated PKI).

Every processor :math:`P_i` owns a :class:`KeyPair`.  The *private key* is
the HMAC secret; the *public key* is an opaque identifier that the
:class:`KeyRegistry` maps back to the verification secret.  Verification
is performed *through the registry* (never by handing the secret to
another party), which models certificate-authority-mediated verification:
any participant can check any signature, but only the key holder can
produce one.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass, field

from repro.exceptions import UnknownSignerError

__all__ = ["KeyPair", "KeyRegistry"]

_KEY_BYTES = 32


@dataclass(frozen=True)
class KeyPair:
    """A processor's signing key pair.

    Attributes
    ----------
    owner:
        Index of the processor that owns this pair (``0`` is the root).
    public_key:
        Hex fingerprint published to the registry.  Deriving the secret
        from it requires inverting SHA-256, which we treat as impossible.
    """

    owner: int
    public_key: str
    _secret: bytes = field(repr=False)
    #: HMAC keyed once with ``_secret``; each MAC works on a copy of it.
    _keyed: hmac.HMAC = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_keyed", hmac.new(self._secret, digestmod=hashlib.sha256))

    def __reduce__(self):
        # The keyed HMAC does not pickle; rebuild it from the secret.
        return (KeyPair, (self.owner, self.public_key, self._secret))

    @classmethod
    def generate(cls, owner: int, *, seed: bytes | None = None) -> "KeyPair":
        """Generate a fresh key pair for ``owner``.

        Parameters
        ----------
        owner:
            Processor index.
        seed:
            Optional deterministic seed (used by tests); production use
            draws from :func:`secrets.token_bytes`.
        """
        if seed is None:
            secret = secrets.token_bytes(_KEY_BYTES)
        else:
            secret = hashlib.sha256(b"repro-keypair|%d|" % owner + seed).digest()
        fingerprint = hashlib.sha256(secret).hexdigest()
        return cls(owner=owner, public_key=fingerprint, _secret=secret)

    def mac(self, payload: bytes) -> str:
        """Compute the signature MAC over ``payload`` with the private key."""
        mac = self._keyed.copy()
        mac.update(payload)
        return mac.hexdigest()


class KeyRegistry:
    """Trusted registry mapping processor indices to verification material.

    The registry plays the role of the PKI: processors register their
    public keys once, and any participant verifies signatures by asking
    the registry.  The registry holds the verification secrets internally
    (HMAC is symmetric) but never reveals them, so no participant other
    than the key owner can *produce* a valid signature — exactly the
    unforgeability assumption of Lemma 5.2.
    """

    def __init__(self) -> None:
        self._pairs: dict[int, KeyPair] = {}

    def register(self, pair: KeyPair) -> None:
        """Register ``pair`` under its owner index (idempotent re-register
        with the same key; replacing a key is allowed and models key
        rotation)."""
        self._pairs[pair.owner] = pair

    def public_key_of(self, owner: int) -> str:
        """Return the registered public-key fingerprint of ``owner``."""
        try:
            return self._pairs[owner].public_key
        except KeyError:
            raise UnknownSignerError(f"no key registered for processor {owner}")

    def expected_mac(self, owner: int, payload: bytes) -> str:
        """Compute the MAC ``owner``'s key would produce over ``payload``.

        Used internally by :func:`repro.crypto.signing.verify`.  Raises
        :class:`~repro.exceptions.UnknownSignerError` for unknown owners.
        """
        try:
            pair = self._pairs[owner]
        except KeyError:
            raise UnknownSignerError(f"no key registered for processor {owner}")
        return pair.mac(payload)

    def __contains__(self, owner: int) -> bool:
        return owner in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    @classmethod
    def for_processors(
        cls, count: int, *, seed: bytes | None = None
    ) -> tuple["KeyRegistry", list[KeyPair]]:
        """Convenience: generate and register key pairs for processors
        ``0 .. count-1``.  Returns the registry and the pairs (each pair is
        handed to its owning processor only)."""
        registry = cls()
        pairs = []
        for i in range(count):
            pair = KeyPair.generate(i, seed=seed)
            registry.register(pair)
            pairs.append(pair)
        return registry, pairs
