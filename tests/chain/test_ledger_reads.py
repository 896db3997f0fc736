"""Reads are not transactions: ``Ledger.read`` and ``Wallet.read``.

A read runs an entry the contract marks ``@entry(read_only=True)`` against
the latest state. It is never signed, nonced, charged, recorded or
checkpointed; it still passes ``submit_gate`` and dispatches through
``Contract.call``, and its context refuses every effect.
"""

import pytest

from repro.chain import KeyPair, Ledger, Wallet, sui_to_mist
from repro.chain.contract import Contract, ExecutionContext, entry
from repro.chain.gas import COMPUTATION_FEE
from repro.chaos import ChaosInjector
from repro.common.errors import ChainError, ContractRevert, LedgerUnavailable
from repro.contracts.debuglet_market import DebugletMarket, ExecutionSlot
from repro.core.marketplace import SessionState
from repro.obs import Observability
from repro.workloads.demos import run_chaos_demo
from repro.workloads.scenarios import MarketplaceTestbed
from tests.contracts.test_debuglet_market import CLIENT_WIRE, SERVER_WIRE

MARKET = DebugletMarket.name
#: lookup_slot's arguments: both vantages, resources, duration, earliest.
LOOKUP_ARGS = (10, 1, 20, 2, 1, 128, 10, 30.0, 0.0)


class LeakyMarket(DebugletMarket):
    """The marketplace plus read entries that each try one effect."""

    @entry(read_only=True)
    def leak_event(self, ctx: ExecutionContext) -> None:
        ctx.emit("Leaked")

    @entry(read_only=True)
    def leak_object(self, ctx: ExecutionContext) -> None:
        ctx.create_object("leak", {"x": 1})

    @entry(read_only=True)
    def leak_tokens(self, ctx: ExecutionContext) -> None:
        ctx.transfer_from_contract(ctx.sender, 1)

    @entry(read_only=True)
    def leak_state(self, ctx: ExecutionContext) -> None:
        self._set("auditor_map", "auditor", ctx.sender)


class Counter(Contract):
    """A contract without an undo journal (the snapshot fallback)."""

    name = "counter"

    def __init__(self) -> None:
        super().__init__()
        self.state = {"value": 0}

    @entry(read_only=True)
    def value(self, ctx: ExecutionContext) -> int:
        return self.state["value"]

    @entry(read_only=True)
    def sneaky_bump(self, ctx: ExecutionContext) -> int:
        self.state["value"] += 1
        return self.state["value"]


def _slot(start: float) -> dict:
    return ExecutionSlot(
        cores=2, memory_mb=512, bandwidth_mbps=100,
        start=start, end=start + 100.0, price=sui_to_mist(0.05),
    ).as_dict()


def _market_ledger(contract=None):
    """A ledger with two executors, slots on both, one purchase and one
    published result: every read below has something to find."""
    ledger = Ledger()
    market = ledger.register_contract(contract or DebugletMarket())
    wallets = {}
    for label in ("exec-a", "exec-b", "init"):
        keypair = KeyPair.deterministic(label)
        ledger.create_account(keypair, balance=sui_to_mist(100), label=label)
        wallets[label] = Wallet(ledger, keypair)
    for label, asn, intf in (("exec-a", 10, 1), ("exec-b", 20, 2)):
        wallets[label].must_call(MARKET, "register_executor", asn, intf)
        wallets[label].must_call(
            MARKET, "register_time_slot", asn, intf, [_slot(100.0), _slot(300.0)]
        )
    found = wallets["init"].must_call(MARKET, "lookup_slot", *LOOKUP_ARGS).return_value
    apps = wallets["init"].must_call(
        MARKET, "purchase_slot", 10, 1, 20, 2,
        found["client_slot_start"], found["server_slot_start"],
        found["start"], found["end"],
        CLIENT_WIRE, {"m": 1}, SERVER_WIRE, {"m": 2},
        value=found["total_price"],
    ).return_value
    wallets["exec-a"].must_call(
        MARKET, "result_ready", apps["client_application"], b"RESULT"
    )
    return ledger, market, wallets, apps


def _chain_view(ledger: Ledger) -> dict:
    """Everything a read must leave as it was."""
    return {
        "balances": {a: acct.balance for a, acct in ledger.accounts.items()},
        "nonces": {a: acct.nonce for a, acct in ledger.accounts.items()},
        "gas_burned": ledger.gas_burned,
        "storage_fund": ledger.storage_fund,
        "receipts": len(ledger.receipts),
        "transactions": len(ledger.transactions),
        "checkpoints": [cp.hash() for cp in ledger.checkpoints],
        "events": len(ledger.events.history),
        "state_digest": ledger.state_digest(),
    }


class TestReadLeavesNoTrace:
    def test_reads_change_no_balance_nonce_fee_receipt_or_checkpoint(self):
        ledger, _, wallets, apps = _market_ledger()
        before = _chain_view(ledger)
        wallets["init"].read(MARKET, "lookup_slot", *LOOKUP_ARGS)
        wallets["init"].read(MARKET, "lookup_result", apps["client_application"])
        with pytest.raises(ContractRevert):
            wallets["init"].read(MARKET, "lookup_result", apps["server_application"])
        assert _chain_view(ledger) == before
        ledger.verify_chain()

    def test_a_read_dispatches_through_contract_call(self, monkeypatch):
        ledger, _, wallets, apps = _market_ledger()
        calls = []
        original = Contract.call

        def spy(self, ctx, function, args):
            calls.append(function)
            return original(self, ctx, function, args)

        monkeypatch.setattr(Contract, "call", spy)
        wallets["init"].read(MARKET, "lookup_result", apps["client_application"])
        assert calls == ["lookup_result"]


class TestReadEqualsTransaction:
    """Two identical ledgers: one reads, the other submits the same call."""

    @pytest.mark.parametrize("function", ["lookup_slot", "lookup_result"])
    def test_same_answer_as_the_transaction(self, function):
        read_ledger, _, read_wallets, apps = _market_ledger()
        tx_ledger, _, tx_wallets, tx_apps = _market_ledger()
        assert apps == tx_apps
        args = (
            LOOKUP_ARGS if function == "lookup_slot"
            else (apps["client_application"],)
        )
        answer = read_wallets["init"].read(MARKET, function, *args)
        receipt = tx_wallets["init"].must_call(MARKET, function, *args)
        assert answer == receipt.return_value
        # The transaction paid the flat computation fee; the read paid nothing.
        assert receipt.gas.total == COMPUTATION_FEE
        assert read_ledger.gas_burned + receipt.gas.total == tx_ledger.gas_burned

    @pytest.mark.parametrize(
        "function, args",
        [
            ("lookup_slot", (10, 1, 20, 2, 64, 128, 10, 30.0, 0.0)),
            ("lookup_result", ("00" * 32,)),
        ],
    )
    def test_same_revert_as_the_transaction(self, function, args):
        _, _, read_wallets, _ = _market_ledger()
        _, _, tx_wallets, _ = _market_ledger()
        receipt = tx_wallets["init"].call(MARKET, function, *args)
        assert not receipt.success
        with pytest.raises(ContractRevert) as refused:
            read_wallets["init"].read(MARKET, function, *args)
        assert receipt.status == f"reverted: {refused.value.reason}"


class TestReadRefusesEffects:
    def test_unmarked_entry_is_refused(self):
        ledger, _, wallets, _ = _market_ledger()
        before = _chain_view(ledger)
        with pytest.raises(ChainError, match="not a read-only entry"):
            wallets["init"].read(
                MARKET, "purchase_slot", 10, 1, 20, 2, 300.0, 300.0, 300.0, 330.0,
                CLIENT_WIRE, {"m": 1}, SERVER_WIRE, {"m": 2},
            )
        with pytest.raises(ChainError, match="unknown contract"):
            wallets["init"].read("no_such_contract", "lookup_slot")
        assert _chain_view(ledger) == before

    @pytest.mark.parametrize(
        "function", ["leak_event", "leak_object", "leak_tokens", "leak_state"]
    )
    def test_a_read_that_writes_raises_and_changes_nothing(self, function):
        ledger, market, wallets, _ = _market_ledger(LeakyMarket())
        before = _chain_view(ledger)
        state_before = {k: dict(v) for k, v in market.state.items()}
        with pytest.raises(ChainError):
            wallets["init"].read(MARKET, function)
        assert _chain_view(ledger) == before
        assert market.state == state_before
        # The read's undo journal is closed, not left open for the next call.
        assert market._journal is None

    def test_unjournaled_contract_write_is_rolled_back_and_refused(self):
        ledger = Ledger()
        counter = ledger.register_contract(Counter())
        digest = ledger.state_digest()
        assert ledger.read("anyone", "counter", "value") == 0
        with pytest.raises(ChainError, match="wrote contract state"):
            ledger.read("anyone", "counter", "sneaky_bump")
        assert counter.state == {"value": 0}
        assert ledger.state_digest() == digest

    def test_read_entries_stay_callable_as_transactions(self):
        ledger, _, wallets, _ = _market_ledger()
        before = len(ledger.transactions)
        receipt = wallets["init"].must_call(MARKET, "lookup_slot", *LOOKUP_ARGS)
        assert receipt.success
        assert len(ledger.transactions) == before + 1
        ledger.verify_chain()


class TestReadsUnderOutage:
    def test_gated_read_raises_ledger_unavailable(self):
        testbed = MarketplaceTestbed.build(3, seed=4)
        simulator = testbed.chain.simulator
        injector = ChaosInjector(simulator, testbed.ledger, seed=1)
        injector.fail_transactions(start=simulator.now, end=simulator.now + 3.0)
        with pytest.raises(LedgerUnavailable, match="chaos window"):
            testbed.initiator.wallet.read(MARKET, "lookup_result", "00" * 32)

    def test_session_certifies_through_retried_reads(self):
        obs = Observability.enabled()
        testbed = MarketplaceTestbed.build(3, seed=4, obs=obs)
        simulator = testbed.chain.simulator
        injector = ChaosInjector(simulator, testbed.ledger, seed=1)
        injector.fail_transactions(start=simulator.now, end=simulator.now + 3.0)
        session = testbed.request_echo(deadline_margin=10.0)
        testbed.initiator.run_until_done(session, simulator, timeout=900.0)
        assert session.state is SessionState.CERTIFIED
        assert session.purchase_retries > 0

        def reads(status, function):
            return obs.metrics.counter(
                "ledger_reads_total", status=status, function=function
            ).value

        assert reads("gated", "lookup_slot") == session.purchase_retries
        assert reads("ok", "lookup_slot") == 1
        assert reads("ok", "lookup_result") == 2
        assert reads("reverted", "lookup_slot") == 0
        gated = [e for e in obs.tracer.events if e.name == "chain.read_gated"]
        assert len(gated) == session.purchase_retries
        assert "chaos window" in gated[0].attributes["reason"]
        # No lookup is on the chain.
        functions = {tx.function for tx in testbed.ledger.transactions}
        assert not functions & {"lookup_slot", "lookup_result"}
        testbed.ledger.verify_chain()


def _recorded_reads(fault: str, monkeypatch, *, as_transactions: bool) -> tuple:
    """Every initiator read of one chaos-demo run, answers and refusals,
    served by ``Ledger.read`` or — ``as_transactions`` — by submitting the
    same call as a transaction.

    Object ids are derived from the creating transaction's digest, which
    holds the sender's nonce, so the transaction path's lookups shift the
    ids of the applications bought after them. Ids are therefore recorded
    by order of first appearance.
    """
    answers = []
    original = Wallet.read
    aliases: dict[str, str] = {}

    def alias(object_id: str) -> str:
        return aliases.setdefault(object_id, f"object#{len(aliases)}")

    def read(self, contract, function, *args):
        shown = (alias(args[0]),) if function == "lookup_result" else args
        try:
            if as_transactions:
                receipt = self.call(contract, function, *args)
                if not receipt.success:
                    raise ContractRevert(receipt.status.removeprefix("reverted: "))
                value = receipt.return_value
            else:
                value = original(self, contract, function, *args)
        except ChainError as exc:
            answers.append((function, shown, type(exc).__name__, str(exc)))
            raise
        if function == "lookup_result":
            value_shown = dict(value, result_id=alias(value["result_id"]))
        else:
            value_shown = value
        answers.append((function, shown, "ok", value_shown))
        return value

    with monkeypatch.context() as patch:
        patch.setattr(Wallet, "read", read)
        run = run_chaos_demo(fault, probes=10)
    return answers, run.session.state, run.escrow_locked


@pytest.mark.parametrize("fault", ["crash", "drop", "delay", "txfail", "expiry"])
def test_chaos_demo_reads_match_the_transaction_path(fault, monkeypatch):
    by_read = _recorded_reads(fault, monkeypatch, as_transactions=False)
    by_tx = _recorded_reads(fault, monkeypatch, as_transactions=True)
    assert by_read == by_tx
    answers, state, escrow_locked = by_read
    functions = [function for function, *_ in answers]
    assert functions[0] == "lookup_slot"
    assert escrow_locked == 0
    assert state in (SessionState.CERTIFIED, SessionState.REFUNDED)
    if state is SessionState.CERTIFIED:
        assert "lookup_result" in functions
    if fault == "txfail":
        assert any(kind == "LedgerUnavailable" for _, _, kind, _ in answers)
