"""Digitally signed messages ``dsm_i(m)`` (paper Section 4, Notation).

A :class:`SignedMessage` bundles a payload with the signer's index and the
signature over a *canonical serialization* of the payload.  Canonical
serialization guarantees that two payloads verify as equal exactly when
their semantic content is equal, which the contradictory-message detection
of Phase I/II relies on.

Payloads are restricted to a small JSON-like vocabulary (numbers, strings,
``None``, tuples/lists, dicts with string keys) — everything the protocol
transmits.

Payloads are immutable after signing.  :func:`sign` serializes its payload
once, in the same pass that seals it: lists become tuples and dicts become
read-only :class:`FrozenDict` copies, which encode exactly as the originals
did.  The message keeps those canonical bytes, and
:meth:`SignedMessage.verify`, :meth:`SignedMessage.content_digest` and
nesting inside another signed payload reuse them.  Only :func:`sign`
stores them: a message built directly (a forgery), copied with
:func:`dataclasses.replace` or unpickled carries none and is serialized
afresh, to the same bytes it always had.
"""

from __future__ import annotations

import hashlib
import hmac
import math
from dataclasses import dataclass, field
from typing import Any, NoReturn

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.exceptions import ForgedSignatureError, MalformedMessageError
from repro.obs.metrics import get_registry

__all__ = ["FrozenDict", "SignedMessage", "canonical_bytes", "dsm", "sign", "verify"]


class FrozenDict(dict):
    """Read-only ``dict``: the sealed form of a signed dict payload.

    Reads, ``isinstance(x, dict)`` and equality behave as for ``dict``;
    every in-place update raises :class:`TypeError`.
    """

    __slots__ = ()

    def _immutable(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("a signed payload is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __reduce__(self):
        # dict's default pickling refills the copy key by key.
        return (FrozenDict, (dict(self),))


def canonical_bytes(payload: Any) -> bytes:
    """Serialize ``payload`` to a canonical byte string.

    Floats are encoded via :func:`float.hex` so that serialization is
    exact (no decimal rounding) and deterministic across platforms.
    Dict entries are sorted by key.  Raises :class:`TypeError` for
    unsupported types so signing never silently mis-serializes.
    """
    parts: list[bytes] = []
    _seal(payload, parts)
    return b"".join(parts)


#: Encodings of dict keys seen so far; protocol payloads use a handful.
_KEY_BYTES: dict[str, bytes] = {}
_KEY_BYTES_LIMIT = 4096


def _seal(value: Any, out: list[bytes]) -> Any:
    """Append ``value``'s canonical encoding to ``out`` and return an
    immutable equal of it (``value`` itself when it already is one)."""
    kind = type(value)
    # The common types, by exact type.
    if kind is float:
        if value != value:
            raise TypeError("cannot sign NaN payloads")
        out.append(b"f%b;" % value.hex().encode("ascii"))
        return value
    if kind is str:
        encoded = value.encode("utf-8")
        out.append(b"s%d:%b;" % (len(encoded), encoded))
        return value
    if kind is int:
        out.append(b"i%d;" % value)
        return value
    if kind is dict or kind is FrozenDict:
        return _seal_dict(value, out)
    if kind is SignedMessage:
        return _seal_message(value, out)
    if kind is tuple or kind is list:
        return _seal_sequence(value, out)
    # Everything else (bool, IntEnum, np.float64, subclasses), in order.
    if value is None:
        out.append(b"N;")
    elif isinstance(value, bool):
        out.append(b"T;" if value else b"F;")
    elif isinstance(value, int):
        out.append(b"i%d;" % value)
    elif isinstance(value, float):
        if math.isnan(value):
            raise TypeError("cannot sign NaN payloads")
        out.append(b"f" + value.hex().encode("ascii") + b";")
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(b"s%d:" % len(encoded) + encoded + b";")
    elif isinstance(value, bytes):
        out.append(b"b%d:" % len(value) + value + b";")
    elif isinstance(value, (list, tuple)):
        return _seal_sequence(value, out)
    elif isinstance(value, dict):
        return _seal_dict(value, out)
    elif isinstance(value, SignedMessage):
        return _seal_message(value, out)
    else:
        raise TypeError(f"unsupported payload type for signing: {type(value)!r}")
    return value


def _seal_sequence(value: Any, out: list[bytes]) -> tuple:
    out.append(b"l%d:" % len(value))
    sealed = tuple([_seal(item, out) for item in value])
    out.append(b";")
    if type(value) is tuple and all(a is b for a, b in zip(sealed, value)):
        return value
    return sealed


def _seal_dict(value: dict, out: list[bytes]) -> FrozenDict:
    out.append(b"d%d:" % len(value))
    changed = None
    for key in sorted(value):
        encoded = _KEY_BYTES.get(key) if type(key) is str else None
        if encoded is None:
            if not isinstance(key, str):
                raise TypeError("signed dict keys must be strings")
            raw = key.encode("utf-8")
            encoded = b"s%d:" % len(raw) + raw + b";"
            if type(key) is str and len(_KEY_BYTES) < _KEY_BYTES_LIMIT:
                _KEY_BYTES[key] = encoded
        out.append(encoded)
        item = value[key]
        sealed = _seal(item, out)
        if sealed is not item:
            if changed is None:
                changed = {}
            changed[key] = sealed
    out.append(b";")
    if changed is None:
        return value if type(value) is FrozenDict else FrozenDict(value)
    frozen = FrozenDict(value)
    for key, sealed in changed.items():
        dict.__setitem__(frozen, key, sealed)
    return frozen


def _seal_message(message: "SignedMessage", out: list[bytes]) -> "SignedMessage":
    # Nested signed messages occur in G_i and Grievance bundles; one
    # encodes as the tuple (signer, payload, signature).
    out.append(b"m:l3:")
    signer = _seal(message.signer, out)
    data = message._canonical
    if data is None:
        payload = _seal(message.payload, out)
    else:
        out.append(data)
        payload = message.payload
    signature = _seal(message.signature, out)
    out.append(b";;")
    if signer is message.signer and payload is message.payload and signature is message.signature:
        return message
    return SignedMessage(signer=signer, payload=payload, signature=signature)


@dataclass(frozen=True)
class SignedMessage:
    """``dsm_i(m) = (m, sig_i(m))`` — a payload plus its signature.

    Attributes
    ----------
    signer:
        Index of the processor whose key produced the signature.
    payload:
        The message content ``m``.
    signature:
        Hex HMAC over the canonical serialization of ``payload``.
    """

    signer: int
    payload: Any
    signature: str
    #: The canonical bytes of ``payload``; set by :func:`sign` only.
    _canonical: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __reduce__(self):
        # An unpickled copy carries no canonical bytes.
        return (type(self), (self.signer, self.payload, self.signature))

    def _payload_bytes(self) -> bytes:
        data = self._canonical
        return canonical_bytes(self.payload) if data is None else data

    def verify(self, registry: KeyRegistry) -> bool:
        """Return ``True`` iff the signature is valid under ``signer``'s
        registered key."""
        get_registry().inc("crypto.verifications_performed")
        expected = registry.expected_mac(self.signer, self._payload_bytes())
        return _constant_time_eq(expected, self.signature)

    def require_valid(self, registry: KeyRegistry) -> "SignedMessage":
        """Verify, raising :class:`ForgedSignatureError` on failure."""
        if not self.verify(registry):
            raise ForgedSignatureError(
                f"signature by processor {self.signer} failed verification"
            )
        return self

    def content_digest(self) -> str:
        """Digest of the payload, used for contradictory-message detection."""
        return hashlib.sha256(self._payload_bytes()).hexdigest()


def _constant_time_eq(a: str, b: str) -> bool:
    return hmac.compare_digest(a.encode("ascii"), b.encode("ascii"))


def sign(pair: KeyPair, payload: Any) -> SignedMessage:
    """Sign ``payload`` with ``pair`` — the paper's ``sig_i(m)``.

    The message holds a sealed (immutable) copy of ``payload`` and its
    canonical bytes."""
    get_registry().inc("crypto.signatures_created")
    parts: list[bytes] = []
    sealed = _seal(payload, parts)
    data = b"".join(parts)
    message = SignedMessage(pair.owner, sealed, pair.mac(data))
    object.__setattr__(message, "_canonical", data)
    return message


# The paper writes the signed bundle as ``dsm_i(m)``; alias for readability
# at call sites that mirror the paper's notation.
dsm = sign


def verify(message: SignedMessage, registry: KeyRegistry, *, expected_signer: int | None = None) -> SignedMessage:
    """Verify a signed message, optionally pinning the expected signer.

    Raises
    ------
    MalformedMessageError
        If ``message`` is not a :class:`SignedMessage` or the signer does
        not match ``expected_signer``.
    ForgedSignatureError
        If the signature does not verify.
    """
    if not isinstance(message, SignedMessage):
        raise MalformedMessageError("expected a SignedMessage", accused=None)
    if expected_signer is not None and message.signer != expected_signer:
        raise MalformedMessageError(
            f"expected signer {expected_signer}, got {message.signer}",
            accused=message.signer,
        )
    return message.require_valid(registry)
