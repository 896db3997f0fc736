"""Third-party verification of published measurement results.

The paper's verifiability story (§III, §IV-C): results live on a
blockchain whose history nobody can silently rewrite, and each result is
certified by the executor that produced it. A verifier holding the ledger
can therefore check, for any application ID:

1. the result object exists and was created by a recorded, signed
   ``result_ready`` transaction included in the checkpoint chain;
2. the transaction's sender is the executor registered on-chain for the
   application's ``<AS, interface>``;
3. the certificate inside the result payload is validly signed, its
   result hash matches the published bytes, its code hash matches the
   bytecode the initiator purchased, and its execution interval sits in
   the purchased window — so the executor ran *that* code and produced
   *these* bytes at *that* vantage point, for *this* purchase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.crypto import sha256, verify_signature
from repro.chain.ledger import Ledger
from repro.chain.merkle import MerkleTree, verify_inclusion
from repro.common.errors import VerificationError
from repro.common.ids import ObjectId
from repro.contracts.debuglet_market import (
    APPLICATION_KIND,
    RESULT_KIND,
    DebugletMarket,
    slot_key,
)
from repro.core.application import DebugletApplication
from repro.core.executor import ResultCertificate
from repro.core.marketplace import decode_result_payload


def verify_certificate(
    certificate: ResultCertificate,
    *,
    result: bytes,
    expected_code_hash: bytes | None = None,
    expected_vantage: tuple[int, int] | None = None,
) -> None:
    """Check one certificate against the result bytes it claims to cover."""
    if sha256(result) != certificate.result_hash:
        raise VerificationError("result bytes do not match certificate hash")
    if expected_code_hash is not None and certificate.code_hash != expected_code_hash:
        raise VerificationError("certificate covers different code")
    if expected_vantage is not None and (
        certificate.asn,
        certificate.interface,
    ) != expected_vantage:
        raise VerificationError("certificate names a different vantage point")
    if not verify_signature(
        certificate.executor_public_key,
        certificate.signing_payload(),
        certificate.signature,
    ):
        raise VerificationError("certificate signature is invalid")


@dataclass
class VerifiedResult:
    """Everything a verifier established about one published result."""

    application_id: str
    result: bytes
    status: str
    certificate: ResultCertificate
    executor_address: str
    vantage: tuple[int, int]
    checkpoint_index: int


class ChainVerifier:
    """Verifies published results against the full ledger history.

    ``code_store`` is needed only for applications purchased with the
    §V-B hash-only optimization: the verifier fetches the code off-chain
    and checks it against the on-chain hash before comparing code hashes.
    """

    def __init__(
        self,
        ledger: Ledger,
        market: DebugletMarket,
        *,
        code_store=None,
    ) -> None:
        self.ledger = ledger
        self.market = market
        self.code_store = code_store

    def verify_result(self, application_id_hex: str) -> VerifiedResult:
        """Run all checks for one application's published result."""
        app_obj = self.ledger.objects.get(ObjectId.from_hex(application_id_hex))
        if app_obj.kind != APPLICATION_KIND:
            raise VerificationError("application object has wrong kind")
        result_hex = self.market.state["results_map"].get(application_id_hex)
        if result_hex is None:
            raise VerificationError("no published result for this application")
        result_obj = self.ledger.objects.get(ObjectId.from_hex(result_hex))
        if result_obj.kind != RESULT_KIND:
            raise VerificationError("result object has wrong kind")

        # (1) The creating transaction is signed and on the checkpoint chain.
        result_id = ObjectId.from_hex(result_hex)
        receipt = None
        tx = None
        for candidate_tx, candidate_receipt in zip(
            self.ledger.transactions, self.ledger.receipts
        ):
            if result_id in candidate_receipt.created_objects:
                tx, receipt = candidate_tx, candidate_receipt
                break
        if tx is None or receipt is None:
            raise VerificationError("no transaction created the result object")
        tx.verify()
        checkpoint = self.ledger.checkpoints[receipt.checkpoint]
        tree = MerkleTree(list(checkpoint.tx_digests))
        index = checkpoint.tx_digests.index(tx.digest())
        if not verify_inclusion(tx.digest(), tree.proof(index), checkpoint.merkle_root):
            raise VerificationError("transaction not included in its checkpoint")

        # (2) The sender is the registered executor for the vantage point.
        asn = app_obj.data["asn"]
        interface = app_obj.data["interface"]
        registered = self.market.state["executor_address_map"].get(
            slot_key(asn, interface)
        )
        if registered != tx.sender:
            raise VerificationError(
                "result published by an address other than the registered executor"
            )

        # (3) The certificate covers these bytes, this code and this window.
        result, status, certificate = decode_result_payload(
            result_obj.data["result"]
        )
        if "bytecode" in app_obj.data:
            wire = app_obj.data["bytecode"]
        else:
            if self.code_store is None:
                raise VerificationError(
                    "hash-only application: verifier needs the off-chain store"
                )
            wire = self.code_store.get_verified(app_obj.data["bytecode_hash"])
        purchased = DebugletApplication.from_wire(wire)
        verify_certificate(
            certificate,
            result=result,
            expected_code_hash=purchased.code_hash(),
            expected_vantage=(asn, interface),
        )
        window = app_obj.data.get("window")
        if window is None:
            raise VerificationError("application has no purchased window")
        if not certificate.within_window(window["start"], window["end"]):
            raise VerificationError(
                f"certificate covers [{certificate.started_at:.3f}, "
                f"{certificate.finished_at:.3f}], outside the purchased "
                f"window [{window['start']:.3f}, {window['end']:.3f}]"
            )
        return VerifiedResult(
            application_id=application_id_hex,
            result=result,
            status=status,
            certificate=certificate,
            executor_address=tx.sender,
            vantage=(asn, interface),
            checkpoint_index=receipt.checkpoint,
        )
