"""Marketplace negative paths: missing executors, funds, admission."""

import pytest

from repro.chain import KeyPair, Wallet
from repro.common.errors import ChainError
from repro.core.application import DebugletApplication
from repro.core.executor import executor_data_address
from repro.core.marketplace import Initiator
from repro.netsim.packet import Protocol
from repro.sandbox.manifest import ExecutorPolicy
from repro.sandbox.programs import echo_client, echo_server
from repro.workloads.scenarios import MarketplaceTestbed


def _apps(testbed, port=9800):
    path = testbed.chain.registry.shortest(1, 2)
    server_app = DebugletApplication.from_stock(
        "srv", echo_server(Protocol.UDP, max_echoes=5, idle_timeout_us=1_000_000),
        listen_port=port, path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(2, 1),
                    count=5, interval_us=20_000, dst_port=port),
        path=path.as_list(),
    )
    return client_app, server_app


class TestRequestFailures:
    def test_unknown_vantage_rejected(self):
        testbed = MarketplaceTestbed.build(2, seed=110)
        client_app, server_app = _apps(testbed)
        with pytest.raises(ChainError, match="not registered"):
            testbed.initiator.request_measurement(
                client_app, server_app, (1, 99), (2, 1), duration=10.0
            )

    def test_unfunded_initiator_rejected(self):
        testbed = MarketplaceTestbed.build(2, seed=111)
        broke_keypair = KeyPair.deterministic("broke")
        testbed.ledger.create_account(broke_keypair, balance=1000)
        broke = Initiator(testbed.ledger, Wallet(testbed.ledger, broke_keypair))
        client_app, server_app = _apps(testbed)
        with pytest.raises(Exception):
            broke.request_measurement(
                client_app, server_app, (1, 2), (2, 1), duration=10.0
            )

    def test_duration_longer_than_any_slot_rejected(self):
        testbed = MarketplaceTestbed.build(2, seed=112)
        client_app, server_app = _apps(testbed)
        with pytest.raises(ChainError, match="no common execution slot"):
            testbed.initiator.request_measurement(
                client_app, server_app, (1, 2), (2, 1), duration=10_000.0
            )


class TestAgentAdmission:
    def test_inadmissible_application_never_runs(self):
        """An application exceeding the executor's policy is purchased
        on-chain but rejected at admission; no result is ever published."""
        testbed = MarketplaceTestbed.build(2, seed=113)
        agent = testbed.agents[(1, 2)]
        agent.executor.policy = ExecutorPolicy(max_packets_sent=1)
        client_app, server_app = _apps(testbed, port=9801)
        session = testbed.initiator.request_measurement(
            client_app, server_app, (1, 2), (2, 1), duration=10.0
        )
        sim = testbed.chain.simulator
        sim.run(until=sim.now + 30.0)
        assert not session.done
        assert agent.rejected_applications
        # The server side (admissible) still ran and published.
        assert session.server_outcome.status == "completed"

    def test_stack_invalid_hashed_purchase_is_rejected_not_raised(self):
        """On a hashed purchase the contract never sees the bytecode, so
        the executor's own verifier is the only static gate. A program
        that underflows its operand stack must end up in
        ``rejected_applications`` with the verifier's V200 — not as an
        IndexError thrown through the simulator's event dispatch — and
        its escrow must come back when the window has passed."""
        from repro.core.marketplace import SessionState
        from repro.sandbox.assembler import assemble
        from tests.chaos.helpers import assert_invariants

        testbed = MarketplaceTestbed.build(2, seed=114)
        stock_client, server_app = _apps(testbed, port=9802)
        source = ".memory 64\n.func run_debuglet 0 0\ndrop\npush 0\nret\n.end\n"
        client_app = DebugletApplication(
            "underflow", stock_client.manifest, module=assemble(source),
            path=stock_client.path,
        )
        session = testbed.initiator.request_measurement(
            client_app, server_app, (1, 2), (2, 1), duration=10.0,
            code_store=testbed.code_store, deadline_margin=5.0,
        )
        testbed.initiator.run_until_done(session, testbed.chain.simulator)

        (rejected,) = testbed.agents[(1, 2)].rejected_applications
        assert rejected[0] == session.client_application
        assert "[V200]" in rejected[1]
        assert session.state is SessionState.REFUNDED
        assert session.client_application in session.refunds
        assert_invariants(testbed, session)
