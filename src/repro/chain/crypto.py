"""Cryptographic primitives for the ledger.

Ed25519 (RFC 8032) is real public-key cryptography here: executors certify
results with keys whose public halves live on-chain, and any third party
can check them. The four ``ed25519_*`` entry points are a seam over two
implementations, chosen once, at first use, by whether the ``cryptography``
package imports:

* ``"openssl"`` — ``cryptography``'s ``Ed25519PrivateKey`` /
  ``Ed25519PublicKey``;
* ``"pure-python"`` — :mod:`repro.chain.ed25519_ref`, the reference the
  OpenSSL path is pinned against and the fallback when it is absent.

Which one runs must never change a result (DESIGN.md §10):

* signing is deterministic in RFC 8032, so signatures and public keys are
  byte-identical;
* the accepted set of :func:`ed25519_verify` is consensus-critical, so the
  seam itself rejects the encodings the two libraries disagree on
  (:func:`_admissible`), whatever the backend would say;
* :func:`ed25519_batch_verify` is a per-item loop under both, so batched
  and serial verification agree exactly. (A random-linear-combination
  batch cannot: a signer key or ``R`` with a small-order component can
  satisfy the combined equation and fail its own.)

:func:`backend_name` says which one this process got.
"""

from __future__ import annotations

import hashlib
import hmac
import importlib.util
import secrets
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from repro.common.errors import VerificationError

# ---------------------------------------------------------------- ed25519

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_Y_MASK = (1 << 255) - 1

#: Bound on the per-seed key cache (simulation fleets sign with a bounded
#: wallet set; cleared wholesale to stay safe under key churn).
_KEYS_MAX = 8192


class _Backend(NamedTuple):
    name: str
    public_key: Callable[[bytes], bytes]
    sign: Callable[[bytes, bytes], bytes]
    verify: Callable[[bytes, bytes, bytes], bool]


def _openssl_backend() -> _Backend:
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey,
        Ed25519PublicKey,
    )

    # Building the key object is half the cost of a signature, and fleets
    # sign with the same wallets over and over. Public-key objects are not
    # cached: rebuilding one is ~5% of a verification.
    keys: dict[bytes, tuple[Ed25519PrivateKey, bytes]] = {}

    def expand(seed: bytes) -> tuple[Ed25519PrivateKey, bytes]:
        entry = keys.get(seed)
        if entry is None:
            key = Ed25519PrivateKey.from_private_bytes(seed)
            if len(keys) >= _KEYS_MAX:
                keys.clear()
            keys[seed] = entry = (key, key.public_key().public_bytes_raw())
        return entry

    def verify(public: bytes, message: bytes, signature: bytes) -> bool:
        try:
            Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        except InvalidSignature:
            return False
        return True

    return _Backend(
        "openssl",
        lambda seed: expand(seed)[1],
        lambda seed, message: expand(seed)[0].sign(message),
        verify,
    )


def _reference_backend() -> _Backend:
    from repro.chain import ed25519_ref as ref

    return _Backend(
        "pure-python",
        ref.ed25519_public_key,
        ref.ed25519_sign,
        ref.ed25519_verify,
    )


_BACKEND: _Backend | None = None


def _backend() -> _Backend:
    global _BACKEND
    if _BACKEND is None:
        try:
            _BACKEND = _openssl_backend()
        except ImportError:
            _BACKEND = _reference_backend()
    return _BACKEND


def backend_name() -> str:
    """``"openssl"`` or ``"pure-python"``: what signs and verifies in this
    process. Wall-clock numbers from one are not comparable with the
    other's; nothing deterministic depends on it.

    Asking loads nothing: before the first signature it is the backend
    the ``cryptography`` package's presence will select."""
    if _BACKEND is not None:
        return _BACKEND.name
    found = importlib.util.find_spec("cryptography") is not None
    return "openssl" if found else "pure-python"


def _check_seed(seed: bytes) -> None:
    if len(seed) != 32:
        raise VerificationError("seed must be 32 bytes")


def _admissible(public: bytes, signature: bytes) -> bool:
    """The part of the accepted set no backend gets a say in.

    Wrong lengths and ``s >= L`` both libraries reject anyway. A public
    key with ``y >= p``, or with ``x = 0`` and the sign bit set (RFC 8032
    §5.1.3 steps 1 and 4), OpenSSL decodes and the reference refuses —
    found by the differential test, rejected here for both.
    """
    if len(public) != 32 or len(signature) != 64:
        return False
    if int.from_bytes(signature[32:], "little") >= _L:
        return False
    encoded = int.from_bytes(public, "little")
    y = encoded & _Y_MASK
    return y < _P and not (encoded > _Y_MASK and y in (1, _P - 1))


def _verify_one(public: bytes, message: bytes, signature: bytes) -> bool:
    # What a batch loops over: the public names are instrumented from
    # outside (bench/trace.py), and a batch is one call into this layer.
    return _admissible(public, signature) and _backend().verify(
        public, message, signature
    )


def ed25519_public_key(seed: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte seed."""
    _check_seed(seed)
    return _backend().public_key(seed)


def ed25519_sign(seed: bytes, message: bytes) -> bytes:
    """Produce a 64-byte RFC 8032 signature."""
    _check_seed(seed)
    return _backend().sign(seed, message)


def ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature; returns False rather than raising on mismatch."""
    return _verify_one(public, message, signature)


def ed25519_batch_verify(
    items: list[tuple[bytes, bytes, bytes]],
) -> list[int]:
    """Verify many ``(public, message, signature)`` triples at once.

    Returns the indices of invalid items (empty list = all valid) — the
    same indices :func:`ed25519_verify` would reject one by one.
    """
    return [
        index
        for index, (public, message, signature) in enumerate(items)
        if not _verify_one(public, message, signature)
    ]


# ------------------------------------------------------------- key pairs


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair. ``address`` is sha256(public)[:16] hex."""

    seed: bytes
    public: bytes

    @classmethod
    def generate(cls) -> "KeyPair":
        seed = secrets.token_bytes(32)
        return cls(seed, ed25519_public_key(seed))

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        return cls(seed, ed25519_public_key(seed))

    @classmethod
    def deterministic(cls, label: str) -> "KeyPair":
        """A reproducible key pair for simulations (NOT for secrets)."""
        return cls.from_seed(hashlib.sha256(label.encode("utf-8")).digest())

    @property
    def address(self) -> str:
        return hashlib.sha256(self.public).hexdigest()[:32]

    def sign(self, message: bytes) -> bytes:
        return ed25519_sign(self.seed, message)

    def verify_own(self, message: bytes, signature: bytes) -> bool:
        return ed25519_verify(self.public, message, signature)


def verify_signature(public: bytes, message: bytes, signature: bytes) -> bool:
    """Module-level verify, for callers that only hold the public key."""
    return ed25519_verify(public, message, signature)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()
