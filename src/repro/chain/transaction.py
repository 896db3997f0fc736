"""Signed transactions and their execution receipts."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any

from repro.chain.crypto import KeyPair, verify_signature
from repro.chain.gas import GasCost
from repro.common.errors import VerificationError
from repro.common.ids import ObjectId
from repro.common.serialize import canonical_encode


@dataclass(frozen=True)
class Transaction:
    """A call to one smart-contract entry function.

    ``value`` is the amount of tokens (MIST) moved from the sender into
    the contract's escrow along with the call — how initiators embed
    payment with a PurchaseSlot. The signature covers every field except
    itself; the sender address must equal ``sha256(public_key)[:32hex]``.
    """

    sender: str
    contract: str
    function: str
    args: tuple
    nonce: int
    gas_budget: int
    value: int = 0
    public_key: bytes = b""
    signature: bytes = b""

    def signing_payload(self) -> bytes:
        # Transactions are immutable, so the canonical encoding is computed
        # once and cached. The cache slots live outside the dataclass fields
        # (object.__setattr__ bypasses the frozen guard) and are never
        # copied by dataclasses.replace(), so signed_by() always re-encodes.
        cached = self.__dict__.get("_payload_cache")
        if cached is None:
            cached = canonical_encode(
                {
                    "sender": self.sender,
                    "contract": self.contract,
                    "function": self.function,
                    "args": list(self.args),
                    "nonce": self.nonce,
                    "gas_budget": self.gas_budget,
                    "value": self.value,
                    "public_key": self.public_key,
                }
            )
            object.__setattr__(self, "_payload_cache", cached)
        return cached

    def digest(self) -> bytes:
        cached = self.__dict__.get("_digest_cache")
        if cached is None:
            cached = hashlib.sha256(self.signing_payload() + self.signature).digest()
            object.__setattr__(self, "_digest_cache", cached)
        return cached

    def signed_by(self, keypair: KeyPair) -> "Transaction":
        """A signed copy of this transaction."""
        unsigned = replace(self, public_key=keypair.public, signature=b"")
        payload = unsigned.signing_payload()
        signed = replace(unsigned, signature=keypair.sign(payload))
        # The payload excludes the signature, so the signed copy's encoding
        # is identical — carry the cache forward instead of re-encoding at
        # submission time.
        object.__setattr__(signed, "_payload_cache", payload)
        return signed

    def verify_address(self) -> None:
        """The cheap half of verification: sender address binds the key.

        :meth:`verify` runs it before the curve check; ``Ledger.verify_chain``
        runs it per transaction, then checks the history's signatures in
        one batch call.
        """
        expected = hashlib.sha256(self.public_key).hexdigest()[:32]
        if expected != self.sender:
            raise VerificationError("sender address does not match public key")

    def verify(self) -> None:
        """Raise :class:`VerificationError` on any authentication failure."""
        self.verify_address()
        if not verify_signature(self.public_key, self.signing_payload(), self.signature):
            raise VerificationError("invalid transaction signature")


@dataclass
class TransactionReceipt:
    """Execution outcome, finality time, and cost of one transaction."""

    digest: bytes
    status: str  # "success" or "reverted: <reason>"
    gas: GasCost
    return_value: Any = None
    created_objects: list[ObjectId] = field(default_factory=list)
    events_emitted: int = 0
    submitted_at: float = 0.0
    finalized_at: float = 0.0
    checkpoint: int = -1

    @property
    def success(self) -> bool:
        return self.status == "success"

    @property
    def finality_latency(self) -> float:
        return self.finalized_at - self.submitted_at
