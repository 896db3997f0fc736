"""Property: batched block application ≡ serial application (DESIGN.md §10).

Block mode is a seal schedule, never a semantic change: for any
marketplace history — including rejected transactions, forged signatures
and ``LedgerUnavailable`` outage windows — applying transactions through
block-grouped checkpoints must yield exactly the balances, escrow totals,
object-store Merkle root, ledger events, and state digest that per-tx
serial application yields. Hypothesis drives arbitrary interleavings of
marketplace calls on the simulator clock against both modes and compares
the complete observable outcome.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import KeyPair, Ledger, Transaction, Wallet, sui_to_mist
from repro.chain.events import Event
from repro.chaos import ChaosInjector
from repro.common.errors import ChainError, LedgerUnavailable, VerificationError
from repro.contracts.debuglet_market import DebugletMarket, ExecutionSlot
from repro.netsim.engine import Simulator

BLOCK_WINDOW = 0.5
FINALITY = 0.2


def _slot(start: float, price: int) -> dict:
    return ExecutionSlot(
        cores=2, memory_mb=256, bandwidth_mbps=100,
        start=start, end=start + 50.0, price=price,
    ).as_dict()


# One operation: (at, kind, actor, detail). Operations are scheduled on
# the simulator clock so they interleave arbitrarily with block flushes.
OPERATIONS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0),
        st.sampled_from(["register", "offer", "purchase", "result", "forge"]),
        st.integers(0, 2),
        st.floats(min_value=0.0, max_value=600.0),
    ),
    max_size=12,
)

# A transient-outage window ([start, start+length]); None = no outage.
OUTAGE = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=15.0),
        st.floats(min_value=0.5, max_value=6.0),
    ),
)


def _forged(ledger: Ledger, wallet: Wallet, variant: int) -> Transaction:
    """A correctly signed ``register_executor`` with its signature zeroed
    (even ``variant``) or with bit ``variant % 512`` flipped (odd)."""
    tx = Transaction(
        sender=wallet.address,
        contract="debuglet_market",
        function="register_executor",
        args=(10, 1),
        nonce=ledger.next_nonce(wallet.address),
        gas_budget=Wallet.DEFAULT_GAS_BUDGET,
    ).signed_by(wallet.keypair)
    signature = bytearray(64)
    if variant % 2:
        signature[:] = tx.signature
        signature[variant % 512 // 8] ^= 1 << variant % 8
    return replace(tx, signature=bytes(signature))


def _run_history(mode: str, operations, outage) -> Ledger:
    """Apply one generated history in the given ledger mode; return the
    drained ledger."""
    simulator = Simulator()
    ledger = Ledger(
        clock=lambda: simulator.now,
        scheduler=lambda delay, fn: simulator.schedule(delay, fn),
        finality_latency=FINALITY,
        num_shards=4,
        block_window=BLOCK_WINDOW if mode == "batched" else None,
    )
    ledger.register_contract(DebugletMarket())
    wallets = []
    for i in range(3):
        keypair = KeyPair.deterministic(f"actor-{i}")
        ledger.create_account(keypair, balance=sui_to_mist(50))
        wallets.append(Wallet(ledger, keypair))
    if outage is not None:
        start, length = outage
        ChaosInjector(simulator, ledger, seed=0).fail_transactions(
            start=start, end=start + length
        )

    purchased: list[str] = []
    slot_clock = [100.0]

    def apply(op) -> None:
        _, kind, actor, detail = op
        try:
            if kind == "register":
                wallets[actor].call(
                    "debuglet_market", "register_executor", 10 + actor,
                    int(detail) % 3,
                )
            elif kind == "offer":
                slot_clock[0] += 100.0
                wallets[actor].call(
                    "debuglet_market", "register_time_slot", 10 + actor, 1,
                    [_slot(slot_clock[0] + detail, sui_to_mist(0.01))],
                )
            elif kind == "purchase":
                receipt = wallets[actor].call(
                    "debuglet_market", "purchase_slot",
                    10, 1, 11, 1, detail, detail, detail, detail + 10.0,
                    b"C", {}, b"S", {}, value=sui_to_mist(0.02),
                )
                if receipt.success:
                    purchased.append(
                        receipt.return_value["client_application"]
                    )
            elif kind == "result":
                if purchased:
                    wallets[actor].call(
                        "debuglet_market", "result_ready",
                        purchased[int(detail) % len(purchased)], b"R",
                    )
            elif kind == "forge":
                # A valid call whose signature is zeroed or has one bit
                # flipped: refused at the door, whatever the ledger mode.
                before = ledger.state_digest()
                with pytest.raises((VerificationError, LedgerUnavailable)):
                    ledger.submit(_forged(ledger, wallets[actor], int(detail)))
                assert ledger.state_digest() == before
        except ChainError:
            pass  # rejected / gated transactions never reach the chain

    for op in sorted(operations, key=lambda op: op[0]):
        simulator.schedule_at(op[0], apply, op)
    simulator.run()
    ledger.flush_block()
    return ledger


def _event_trace(ledger: Ledger) -> list[tuple]:
    return [
        (event.name, event.attributes, event.tx_digest, event.emitted_at)
        for event in ledger.events.history
    ]


class TestBatchEquivalenceProperty:
    @given(OPERATIONS, OUTAGE)
    @settings(max_examples=20, deadline=None)
    def test_batched_equals_serial(self, operations, outage):
        serial = _run_history("serial", operations, outage)
        batched = _run_history("batched", operations, outage)

        # The full observable outcome must match, piece by piece (the
        # digest subsumes most of these, but piecewise comparison makes
        # failures diagnosable).
        assert {a: acc.balance for a, acc in batched.accounts.items()} == {
            a: acc.balance for a, acc in serial.accounts.items()
        }
        assert batched.contract_balances == serial.contract_balances
        assert batched.gas_burned == serial.gas_burned
        assert batched.storage_fund == serial.storage_fund
        assert batched.objects.state_root() == serial.objects.state_root()
        assert _event_trace(batched) == _event_trace(serial)
        assert [r.status for r in batched.receipts] == [
            r.status for r in serial.receipts
        ]
        assert batched.state_digest() == serial.state_digest()

        # Identical transactions, different checkpoint grouping.
        assert len(batched.transactions) == len(serial.transactions)
        assert len(batched.checkpoints) <= len(serial.checkpoints)

        # Both histories verify end to end, and the batched history
        # replays (serially) to the same state.
        serial.verify_chain()
        batched.verify_chain()
        replica = batched.replay({"debuglet_market": DebugletMarket})
        assert replica.state_digest() == batched.state_digest()


@pytest.mark.parametrize("mode", ["serial", "block_window", "begin_block"])
def test_forged_signature_is_rejected_at_submit(mode):
    """A forged transaction never runs, in any ledger mode: ``submit``
    raises before touching state, the open block keeps only the honest
    transaction, and the history still verifies and replays."""
    simulator = Simulator()
    ledger = Ledger(
        clock=lambda: simulator.now,
        scheduler=lambda delay, fn: simulator.schedule(delay, fn),
        finality_latency=FINALITY,
        num_shards=4,
        block_window=BLOCK_WINDOW if mode == "block_window" else None,
    )
    ledger.register_contract(DebugletMarket())
    wallet = Wallet(ledger, KeyPair.deterministic("forger"))
    ledger.create_account(wallet.keypair, balance=sui_to_mist(10))
    if mode == "begin_block":
        ledger.begin_block()
    good = wallet.must_call("debuglet_market", "register_executor", 10, 1)

    for variant in (0, 1, 511):
        digest = ledger.state_digest()
        scheduled = simulator.pending_events
        with pytest.raises(VerificationError):
            ledger.submit(_forged(ledger, wallet, variant))
        assert ledger.next_nonce(wallet.address) == 1
        assert ledger.state_digest() == digest
        assert simulator.pending_events == scheduled
        assert len(ledger.transactions) == len(ledger.receipts) == 1

    simulator.run()
    ledger.flush_block()
    assert [cp.tx_digests for cp in ledger.checkpoints] == [(good.digest,)]
    assert ledger.blocks_sealed == (0 if mode == "serial" else 1)
    ledger.verify_chain()
    ledger.replay({"debuglet_market": DebugletMarket})


def test_event_delivery_order_is_stable_under_indexing():
    """The indexed EventBus must dispatch in exact subscription order even
    when subscribers land in different index buckets."""
    from repro.chain.events import EventBus

    bus = EventBus()
    calls: list[str] = []
    bus.subscribe("E", lambda e: calls.append("broad"))
    bus.subscribe("E", lambda e: calls.append("a"), application_id="a")
    bus.subscribe("E", lambda e: calls.append("broad2"))
    bus.subscribe("E", lambda e: calls.append("a2"), application_id="a")
    bus.publish(
        Event(
            name="E",
            attributes=(("application_id", "a"),),
            tx_digest=b"",
            sequence=0,
            emitted_at=0.0,
        )
    )
    assert calls == ["broad", "a", "broad2", "a2"]
