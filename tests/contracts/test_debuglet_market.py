"""The marketplace contract: §IV-C semantics."""

import pytest

from repro.chain import KeyPair, Ledger, Wallet, sui_to_mist
from repro.common.errors import ChainError
from repro.contracts.debuglet_market import DebugletMarket, ExecutionSlot
from repro.core.application import DebugletApplication
from repro.netsim.packet import Address, Protocol
from repro.sandbox.programs import echo_client, echo_server


def _client_wire() -> bytes:
    stock = echo_client(Protocol.UDP, Address(20, 2), count=3, dst_port=7)
    return DebugletApplication.from_stock("cli", stock).to_wire()


def _server_wire() -> bytes:
    stock = echo_server(Protocol.UDP, max_echoes=3)
    return DebugletApplication.from_stock("srv", stock, listen_port=7).to_wire()


# Shipped with every purchase; built once, the contract re-verifies them.
CLIENT_WIRE = _client_wire()
SERVER_WIRE = _server_wire()


def _slot(start=100.0, end=200.0, price=None, **kwargs) -> dict:
    defaults = dict(cores=2, memory_mb=512, bandwidth_mbps=100)
    defaults.update(kwargs)
    return ExecutionSlot(
        start=start, end=end,
        price=sui_to_mist(0.05) if price is None else price,
        **defaults,
    ).as_dict()


@pytest.fixture
def market_setup():
    ledger = Ledger()
    market = ledger.register_contract(DebugletMarket())
    wallets = {}
    for label in ("exec-a", "exec-b", "init", "stranger"):
        keypair = KeyPair.deterministic(label)
        ledger.create_account(keypair, balance=sui_to_mist(100), label=label)
        wallets[label] = Wallet(ledger, keypair)
    wallets["exec-a"].must_call("debuglet_market", "register_executor", 10, 1)
    wallets["exec-b"].must_call("debuglet_market", "register_executor", 20, 2)
    return ledger, market, wallets


def _offer_default_slots(wallets):
    wallets["exec-a"].must_call(
        "debuglet_market", "register_time_slot", 10, 1, [_slot()]
    )
    wallets["exec-b"].must_call(
        "debuglet_market", "register_time_slot", 20, 2, [_slot()]
    )


def _lookup(wallets, **overrides):
    args = dict(duration=30.0, earliest=0.0)
    args.update(overrides)
    return wallets["init"].must_call(
        "debuglet_market", "lookup_slot",
        10, 1, 20, 2, 1, 128, 10, args["duration"], args["earliest"],
    ).return_value


def _purchase(wallets, found, value=None):
    return wallets["init"].must_call(
        "debuglet_market", "purchase_slot", 10, 1, 20, 2,
        found["client_slot_start"], found["server_slot_start"],
        found["start"], found["end"],
        CLIENT_WIRE, {"m": 1}, SERVER_WIRE, {"m": 2},
        value=found["total_price"] if value is None else value,
    ).return_value


class TestRegistration:
    def test_reregistration_by_same_address_ok(self, market_setup):
        _, market, wallets = market_setup
        wallets["exec-a"].must_call("debuglet_market", "register_executor", 10, 1)
        assert market.executor_address(10, 1) == wallets["exec-a"].address

    def test_identity_cannot_be_hijacked(self, market_setup):
        _, _, wallets = market_setup
        receipt = wallets["stranger"].call(
            "debuglet_market", "register_executor", 10, 1
        )
        assert not receipt.success

    def test_slots_require_ownership(self, market_setup):
        _, _, wallets = market_setup
        receipt = wallets["stranger"].call(
            "debuglet_market", "register_time_slot", 10, 1, [_slot()]
        )
        assert not receipt.success

    def test_unregistered_executor_cannot_offer(self, market_setup):
        _, _, wallets = market_setup
        receipt = wallets["exec-a"].call(
            "debuglet_market", "register_time_slot", 99, 9, [_slot()]
        )
        assert not receipt.success

    def test_overlapping_slots_rejected(self, market_setup):
        _, _, wallets = market_setup
        receipt = wallets["exec-a"].call(
            "debuglet_market", "register_time_slot", 10, 1,
            [_slot(100.0, 200.0), _slot(150.0, 250.0)],
        )
        assert not receipt.success

    def test_slots_kept_sorted(self, market_setup):
        _, market, wallets = market_setup
        wallets["exec-a"].must_call(
            "debuglet_market", "register_time_slot", 10, 1,
            [_slot(300.0, 400.0), _slot(100.0, 200.0)],
        )
        slots = market.available_slots(10, 1)
        assert [slot.start for slot in slots] == [100.0, 300.0]


class TestLookup:
    def test_finds_common_window(self, market_setup):
        _, _, wallets = market_setup
        _offer_default_slots(wallets)
        found = _lookup(wallets)
        assert found["start"] == 100.0
        assert found["end"] == 130.0
        assert found["total_price"] == 2 * sui_to_mist(0.05)

    def test_earliest_respected(self, market_setup):
        _, _, wallets = market_setup
        _offer_default_slots(wallets)
        found = _lookup(wallets, earliest=150.0)
        assert found["start"] == 150.0

    def test_no_overlap_fails(self, market_setup):
        _, _, wallets = market_setup
        wallets["exec-a"].must_call(
            "debuglet_market", "register_time_slot", 10, 1, [_slot(100.0, 200.0)]
        )
        wallets["exec-b"].must_call(
            "debuglet_market", "register_time_slot", 20, 2, [_slot(300.0, 400.0)]
        )
        with pytest.raises(ChainError):
            _lookup(wallets)

    def test_resource_requirements_filter(self, market_setup):
        _, _, wallets = market_setup
        wallets["exec-a"].must_call(
            "debuglet_market", "register_time_slot", 10, 1, [_slot(cores=1)]
        )
        wallets["exec-b"].must_call(
            "debuglet_market", "register_time_slot", 20, 2, [_slot(cores=8)]
        )
        receipt = wallets["init"].call(
            "debuglet_market", "lookup_slot",
            10, 1, 20, 2, 4, 128, 10, 30.0, 0.0,  # needs 4 cores
        )
        assert not receipt.success

    def test_duration_must_fit_slot(self, market_setup):
        _, _, wallets = market_setup
        _offer_default_slots(wallets)
        with pytest.raises(ChainError):
            _lookup(wallets, duration=500.0)


class TestPurchase:
    def test_purchase_escrows_and_stores_applications(self, market_setup):
        ledger, market, wallets = market_setup
        _offer_default_slots(wallets)
        found = _lookup(wallets)
        apps = _purchase(wallets, found)
        assert ledger.contract_balances["debuglet_market"] == found["total_price"]
        from repro.common.ids import ObjectId

        client_obj = ledger.objects.get(
            ObjectId.from_hex(apps["client_application"])
        )
        assert client_obj.data["bytecode"] == CLIENT_WIRE
        assert client_obj.data["role"] == "client"
        server_obj = ledger.objects.get(
            ObjectId.from_hex(apps["server_application"])
        )
        assert server_obj.data["peer"] == apps["client_application"]

    def test_purchase_consumes_slots(self, market_setup):
        _, market, wallets = market_setup
        _offer_default_slots(wallets)
        _purchase(wallets, _lookup(wallets))
        assert market.available_slots(10, 1) == []
        assert market.available_slots(20, 2) == []

    def test_underpayment_rejected(self, market_setup):
        _, _, wallets = market_setup
        _offer_default_slots(wallets)
        found = _lookup(wallets)
        receipt = wallets["init"].call(
            "debuglet_market", "purchase_slot", 10, 1, 20, 2,
            found["client_slot_start"], found["server_slot_start"],
            found["start"], found["end"],
            CLIENT_WIRE, {}, SERVER_WIRE, {}, value=found["total_price"] - 1,
        )
        assert not receipt.success

    def test_excess_value_refunded(self, market_setup):
        ledger, _, wallets = market_setup
        _offer_default_slots(wallets)
        found = _lookup(wallets)
        _purchase(wallets, found, value=found["total_price"] + 12345)
        assert ledger.contract_balances["debuglet_market"] == found["total_price"]

    def test_events_emitted_per_executor(self, market_setup):
        ledger, _, wallets = market_setup
        _offer_default_slots(wallets)
        _purchase(wallets, _lookup(wallets))
        events = ledger.events.events_named("ApplicationSubmitted")
        assert {(e.get("asn"), e.get("interface")) for e in events} == {
            (10, 1), (20, 2),
        }


class TestPurchaseVerification:
    """Static verification gates the purchase *before* escrow (§IV-B/C)."""

    def _try_purchase(self, wallets, found, client_wire, server_wire=None):
        return wallets["init"].call(
            "debuglet_market", "purchase_slot", 10, 1, 20, 2,
            found["client_slot_start"], found["server_slot_start"],
            found["start"], found["end"],
            client_wire, {"m": 1},
            SERVER_WIRE if server_wire is None else server_wire, {"m": 2},
            value=found["total_price"],
        )

    def test_garbage_bytecode_reverts(self, market_setup):
        _, _, wallets = market_setup
        _offer_default_slots(wallets)
        receipt = self._try_purchase(wallets, _lookup(wallets), b"\x00garbage")
        assert not receipt.success
        assert "malformed" in receipt.status

    def test_rejection_happens_before_escrow(self, market_setup):
        ledger, market, wallets = market_setup
        _offer_default_slots(wallets)
        found = _lookup(wallets)
        before = wallets["init"].balance
        receipt = self._try_purchase(wallets, found, b"not json")
        assert not receipt.success
        # No escrow, no slot consumed, only gas paid.
        assert ledger.contract_balances.get("debuglet_market", 0) == 0
        assert len(market.available_slots(10, 1)) == 1
        assert len(market.available_slots(20, 2)) == 1
        assert wallets["init"].balance == before - receipt.gas.total

    @pytest.mark.parametrize("port", [-1, 65_536])
    def test_argument_past_its_interval_reverts_before_escrow(
        self, market_setup, port,
    ):
        import json

        ledger, market, wallets = market_setup
        _offer_default_slots(wallets)
        found = _lookup(wallets)
        before = wallets["init"].balance
        payload = json.loads(CLIENT_WIRE.decode("utf-8"))
        payload["args"][0] = port  # the port is declared in [0, 65535]
        wire = json.dumps(payload, sort_keys=True).encode("utf-8")
        receipt = self._try_purchase(wallets, found, wire)
        assert not receipt.success
        assert "client arguments refused" in receipt.status
        assert f"argument 0 = {port}" in receipt.status
        assert ledger.contract_balances.get("debuglet_market", 0) == 0
        assert len(market.available_slots(10, 1)) == 1
        assert len(market.available_slots(20, 2)) == 1
        assert wallets["init"].balance == before - receipt.gas.total

    def test_unverifiable_program_reverts(self, market_setup):
        import json

        _, _, wallets = market_setup
        _offer_default_slots(wallets)
        payload = json.loads(CLIENT_WIRE.decode("utf-8"))
        payload["source"] = (
            ".memory 4096\n.func run_debuglet 0 0\n"
            "loop:\n    nop\n    jmp loop\n.end\n"
        )
        wire = json.dumps(payload, sort_keys=True).encode("utf-8")
        receipt = self._try_purchase(wallets, _lookup(wallets), wire)
        assert not receipt.success
        assert "V302" in receipt.status

    def test_undeclared_capability_reverts(self, market_setup):
        import json

        _, _, wallets = market_setup
        _offer_default_slots(wallets)
        payload = json.loads(CLIENT_WIRE.decode("utf-8"))
        # TCP probe under a manifest that only declares UDP.
        payload["source"] = (
            ".memory 4096\n.func run_debuglet 0 0\n"
            "    push 6\n    push 0\n    push 7\n    push 0\n    push 8\n"
            "    host net_send\n    ret\n.end\n"
        )
        wire = json.dumps(payload, sort_keys=True).encode("utf-8")
        receipt = self._try_purchase(wallets, _lookup(wallets), wire)
        assert not receipt.success
        assert "V500" in receipt.status

    def test_hashed_purchase_skips_onchain_verification(self, market_setup):
        """Hash-only purchases cannot be verified on-chain; the executor's
        own re-verification is the gate there."""
        _, _, wallets = market_setup
        _offer_default_slots(wallets)
        found = _lookup(wallets)
        receipt = wallets["init"].call(
            "debuglet_market", "purchase_slot_hashed", 10, 1, 20, 2,
            found["client_slot_start"], found["server_slot_start"],
            found["start"], found["end"],
            b"\x11" * 32, {"m": 1}, b"\x22" * 32, {"m": 2},
            value=found["total_price"],
        )
        assert receipt.success


class TestResults:
    def _purchased(self, market_setup):
        ledger, market, wallets = market_setup
        _offer_default_slots(wallets)
        return ledger, market, wallets, _purchase(wallets, _lookup(wallets))

    def test_result_pays_executor(self, market_setup):
        ledger, _, wallets, apps = self._purchased(market_setup)
        before = wallets["exec-a"].balance
        receipt = wallets["exec-a"].must_call(
            "debuglet_market", "result_ready", apps["client_application"], b"R"
        )
        earned = wallets["exec-a"].balance - before + receipt.gas.total
        assert earned == sui_to_mist(0.05)

    def test_only_assigned_executor_may_publish(self, market_setup):
        _, _, wallets, apps = self._purchased(market_setup)
        receipt = wallets["exec-b"].call(
            "debuglet_market", "result_ready", apps["client_application"], b"R"
        )
        assert not receipt.success

    def test_double_publication_rejected(self, market_setup):
        _, _, wallets, apps = self._purchased(market_setup)
        wallets["exec-a"].must_call(
            "debuglet_market", "result_ready", apps["client_application"], b"R1"
        )
        receipt = wallets["exec-a"].call(
            "debuglet_market", "result_ready", apps["client_application"], b"R2"
        )
        assert not receipt.success

    def test_lookup_result_returns_payload(self, market_setup):
        _, _, wallets, apps = self._purchased(market_setup)
        wallets["exec-a"].must_call(
            "debuglet_market", "result_ready", apps["client_application"], b"DATA"
        )
        found = wallets["init"].must_call(
            "debuglet_market", "lookup_result", apps["client_application"]
        ).return_value
        assert found["result"] == b"DATA"
        assert found["executor"] == wallets["exec-a"].address

    def test_lookup_missing_result_fails(self, market_setup):
        _, _, wallets, apps = self._purchased(market_setup)
        receipt = wallets["init"].call(
            "debuglet_market", "lookup_result", apps["client_application"]
        )
        assert not receipt.success

    def test_result_ready_emits_event_for_initiator(self, market_setup):
        ledger, _, wallets, apps = self._purchased(market_setup)
        wallets["exec-a"].must_call(
            "debuglet_market", "result_ready", apps["client_application"], b"R"
        )
        events = ledger.events.events_named("ResultReady")
        assert events[0].get("application_id") == apps["client_application"]
        assert events[0].get("initiator") == wallets["init"].address
