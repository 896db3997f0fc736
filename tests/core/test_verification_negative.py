"""More adversarial verification scenarios."""

import pytest

from repro.common.errors import VerificationError
from repro.common.ids import ObjectId
from repro.core.application import DebugletApplication
from repro.core.executor import executor_data_address
from repro.core.verification import ChainVerifier
from repro.netsim.packet import Protocol
from repro.sandbox.programs import echo_client, echo_server
from repro.workloads.scenarios import MarketplaceTestbed


@pytest.fixture(scope="module")
def flow():
    testbed = MarketplaceTestbed.build(2, seed=120)
    path = testbed.chain.registry.shortest(1, 2)
    server_app = DebugletApplication.from_stock(
        "srv", echo_server(Protocol.UDP, max_echoes=5, idle_timeout_us=1_000_000),
        listen_port=9850, path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(2, 1),
                    count=5, interval_us=20_000, dst_port=9850),
        path=path.as_list(),
    )
    session = testbed.initiator.request_measurement(
        client_app, server_app, (1, 2), (2, 1), duration=20.0
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    return testbed, session


class TestAdversarialVerification:
    def test_reassigned_executor_identity_detected(self, flow):
        """If the on-chain executor registration is rewritten after the
        fact, the verifier notices the publishing sender no longer matches."""
        testbed, session = flow
        market = testbed.market
        key = "1:2"
        original = market.state["executor_address_map"][key]
        try:
            market.state["executor_address_map"][key] = "f" * 32
            with pytest.raises(VerificationError, match="registered executor"):
                ChainVerifier(testbed.ledger, market).verify_result(
                    session.client_application
                )
        finally:
            market.state["executor_address_map"][key] = original

    def test_swapped_certificate_detected(self, flow):
        """Grafting the *server's* (valid!) result payload onto the
        client's application fails: the certificate names the wrong
        vantage point."""
        testbed, session = flow
        results_map = testbed.market.state["results_map"]
        client_result = results_map[session.client_application]
        server_result = results_map[session.server_application]
        try:
            results_map[session.client_application] = server_result
            with pytest.raises(VerificationError):
                ChainVerifier(testbed.ledger, testbed.market).verify_result(
                    session.client_application
                )
        finally:
            results_map[session.client_application] = client_result

    def test_nonexistent_result_object(self, flow):
        testbed, session = flow
        results_map = testbed.market.state["results_map"]
        original = results_map[session.client_application]
        try:
            results_map[session.client_application] = "00" * 16
            with pytest.raises(Exception):
                ChainVerifier(testbed.ledger, testbed.market).verify_result(
                    session.client_application
                )
        finally:
            results_map[session.client_application] = original

    def test_wrong_kind_object(self, flow):
        testbed, session = flow
        # Point the results map at the *application* object instead.
        results_map = testbed.market.state["results_map"]
        original = results_map[session.client_application]
        try:
            results_map[session.client_application] = session.server_application
            with pytest.raises(VerificationError, match="wrong kind"):
                ChainVerifier(testbed.ledger, testbed.market).verify_result(
                    session.client_application
                )
        finally:
            results_map[session.client_application] = original

    def test_application_without_window_is_a_verification_error(self, flow):
        """The window check is unconditional; an application object that
        carries none fails with the verifier's own error type."""
        testbed, session = flow
        app_obj = testbed.ledger.objects.get(
            ObjectId.from_hex(session.client_application)
        )
        window = app_obj.data.pop("window")
        try:
            with pytest.raises(VerificationError, match="no purchased window"):
                ChainVerifier(testbed.ledger, testbed.market).verify_result(
                    session.client_application
                )
        finally:
            app_obj.data["window"] = window
