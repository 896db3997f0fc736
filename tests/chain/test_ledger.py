"""Ledger: execution, escrow, revert, verification, replay."""

import pytest

from repro.chain.contract import Contract, ExecutionContext, entry
from repro.chain.crypto import KeyPair
from repro.chain.gas import REBATE_OBJECT_OVERHEAD
from repro.chain.ledger import Ledger, Wallet
from repro.chain.transaction import Transaction
from repro.common.errors import (
    ChainError,
    InsufficientTokens,
    VerificationError,
)


class Counter(Contract):
    """Test contract: counter + escrow payout + object creation."""

    name = "counter"

    def __init__(self) -> None:
        super().__init__()
        self.state = {"count": 0, "owner": ""}

    @entry
    def increment(self, ctx: ExecutionContext, by: int) -> int:
        ctx.require(by > 0, "must increment by a positive amount")
        self.state["count"] += by
        ctx.emit("Incremented", by=by)
        return self.state["count"]

    @entry
    def store_blob(self, ctx: ExecutionContext, blob: bytes) -> str:
        object_id = ctx.create_object("blob", {"data": blob})
        return object_id.hex()

    @entry
    def pay_out(self, ctx: ExecutionContext, to: str, amount: int) -> int:
        ctx.transfer_from_contract(to, amount)
        return amount

    @entry
    def fail_after_mutation(self, ctx: ExecutionContext) -> None:
        self.state["count"] += 1000
        ctx.create_object("junk", {"x": 1})
        ctx.emit("ShouldNotAppear")
        ctx.abort("deliberate failure")


@pytest.fixture
def ledger():
    ledger = Ledger(finality_latency=0.4)
    ledger.register_contract(Counter())
    return ledger


@pytest.fixture
def wallet(ledger):
    keypair = KeyPair.deterministic("alice")
    ledger.create_account(keypair, balance=10_000_000_000, label="alice")
    return Wallet(ledger, keypair)


class TestExecution:
    def test_successful_call(self, ledger, wallet):
        receipt = wallet.call("counter", "increment", 5)
        assert receipt.success
        assert receipt.return_value == 5
        assert ledger.contracts["counter"].state["count"] == 5

    def test_gas_deducted(self, ledger, wallet):
        before = wallet.balance
        receipt = wallet.call("counter", "increment", 1)
        assert wallet.balance == before - receipt.gas.total

    def test_storage_priced_by_size(self, ledger, wallet):
        small = wallet.call("counter", "store_blob", b"x" * 10)
        large = wallet.call("counter", "store_blob", b"x" * 10_000)
        assert large.gas.storage > small.gas.storage

    def test_finality_latency_on_receipt(self, ledger, wallet):
        receipt = wallet.call("counter", "increment", 1)
        assert receipt.finality_latency == pytest.approx(0.4)

    def test_events_delivered(self, ledger, wallet):
        seen = []
        ledger.events.subscribe("Incremented", seen.append)
        wallet.call("counter", "increment", 3)
        assert len(seen) == 1
        assert seen[0].get("by") == 3

    def test_unknown_contract_rejected(self, ledger, wallet):
        tx = Transaction(
            sender=wallet.address, contract="ghost", function="x", args=(),
            nonce=0, gas_budget=10**9,
        ).signed_by(wallet.keypair)
        with pytest.raises(ChainError):
            ledger.submit(tx)


class TestAuthentication:
    def test_bad_signature_rejected(self, ledger, wallet):
        tx = Transaction(
            sender=wallet.address, contract="counter", function="increment",
            args=(1,), nonce=0, gas_budget=10**9,
            public_key=wallet.keypair.public, signature=b"\x00" * 64,
        )
        with pytest.raises(VerificationError):
            ledger.submit(tx)

    def test_sender_must_match_key(self, ledger, wallet):
        other = KeyPair.deterministic("mallory")
        tx = Transaction(
            sender=wallet.address,  # claims alice
            contract="counter", function="increment", args=(1,),
            nonce=0, gas_budget=10**9,
        ).signed_by(other)  # signed by mallory
        with pytest.raises(VerificationError):
            ledger.submit(tx)

    def test_nonce_replay_rejected(self, ledger, wallet):
        tx = Transaction(
            sender=wallet.address, contract="counter", function="increment",
            args=(1,), nonce=0, gas_budget=10**9,
        ).signed_by(wallet.keypair)
        ledger.submit(tx)
        with pytest.raises(ChainError, match="nonce"):
            ledger.submit(tx)

    def test_insufficient_balance_rejected(self, ledger):
        poor = KeyPair.deterministic("poor")
        ledger.create_account(poor, balance=10)
        tx = Transaction(
            sender=poor.address, contract="counter", function="increment",
            args=(1,), nonce=0, gas_budget=10**9,
        ).signed_by(poor)
        with pytest.raises(InsufficientTokens):
            ledger.submit(tx)


class TestRevert:
    def test_revert_rolls_back_everything(self, ledger, wallet):
        wallet.call("counter", "increment", 5)
        objects_before = len(ledger.objects)
        receipt = wallet.call("counter", "fail_after_mutation")
        assert not receipt.success
        assert "deliberate failure" in receipt.status
        assert ledger.contracts["counter"].state["count"] == 5
        assert len(ledger.objects) == objects_before
        assert ledger.events.events_named("ShouldNotAppear") == []

    def test_revert_returns_attached_value(self, ledger, wallet):
        before = wallet.balance
        receipt = wallet.call("counter", "fail_after_mutation", value=1_000_000)
        # Only the computation fee is lost.
        assert wallet.balance == before - receipt.gas.computation
        assert ledger.contract_balances["counter"] == 0

    def test_revert_still_consumes_nonce(self, ledger, wallet):
        wallet.call("counter", "fail_after_mutation")
        assert ledger.next_nonce(wallet.address) == 1

    def test_must_call_raises_on_revert(self, ledger, wallet):
        with pytest.raises(ChainError):
            wallet.must_call("counter", "increment", -1)

    def test_gas_over_budget_reverts(self, ledger, wallet):
        receipt = wallet.call(
            "counter", "store_blob", b"x" * 100_000, gas_budget=20_000_000
        )
        assert not receipt.success
        assert "gas" in receipt.status


class TestEscrowPayout:
    def test_value_escrowed_and_paid_out(self, ledger, wallet):
        beneficiary = KeyPair.deterministic("bob")
        ledger.create_account(beneficiary, balance=0)
        wallet.must_call("counter", "increment", 1, value=5_000_000)
        assert ledger.contract_balances["counter"] == 5_000_000
        wallet.must_call("counter", "pay_out", beneficiary.address, 5_000_000)
        assert ledger.balance_of(beneficiary.address) == 5_000_000
        assert ledger.contract_balances["counter"] == 0

    def test_overdrawn_payout_reverts(self, ledger, wallet):
        receipt = wallet.call("counter", "pay_out", wallet.address, 10**12)
        assert not receipt.success


class TestVerifyAndReplay:
    def test_verify_chain_passes(self, ledger, wallet):
        for i in range(3):
            wallet.call("counter", "increment", i + 1)
        ledger.verify_chain()

    def test_verify_detects_tampered_checkpoint(self, ledger, wallet):
        wallet.call("counter", "increment", 1)
        wallet.call("counter", "increment", 2)
        checkpoint = ledger.checkpoints[1]
        object.__setattr__(checkpoint, "previous_hash", b"\x00" * 32)
        with pytest.raises(VerificationError):
            ledger.verify_chain()

    def test_replay_reproduces_state(self, ledger, wallet):
        wallet.call("counter", "increment", 7)
        wallet.call("counter", "store_blob", b"payload")
        wallet.call("counter", "fail_after_mutation")
        replica = ledger.replay({"counter": Counter})
        assert replica.state_digest() == ledger.state_digest()
        assert replica.contracts["counter"].state["count"] == 7

    def test_replay_requires_factories(self, ledger, wallet):
        wallet.call("counter", "increment", 1)
        with pytest.raises(VerificationError):
            ledger.replay({})


class TestObjectRebate:
    def test_free_object_credits_rebate(self, ledger, wallet):
        class Freer(Counter):
            name = "freer"

            @entry
            def free_it(self, ctx: ExecutionContext, object_id_hex: str) -> None:
                from repro.common.ids import ObjectId

                ctx.free_object(ObjectId.from_hex(object_id_hex))

        ledger.register_contract(Freer())
        receipt = wallet.must_call("freer", "store_blob", b"x" * 1000)
        object_id = receipt.return_value
        before = wallet.balance
        free_receipt = wallet.must_call("freer", "free_it", object_id)
        rebate_received = wallet.balance - before + free_receipt.gas.total
        assert rebate_received > REBATE_OBJECT_OVERHEAD
