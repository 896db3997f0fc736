"""The five-step §IV-A flow over the ledger-backed marketplace."""

import pytest

from repro.core.marketplace import decode_result_payload, encode_result_payload
from repro.core.results import EchoMeasurement, ServerReport
from repro.workloads.scenarios import MarketplaceTestbed

COUNT = 10


@pytest.fixture(scope="module")
def completed_session():
    """One full measurement run, shared by the read-only assertions."""
    testbed = MarketplaceTestbed.build(3, seed=5)
    session = testbed.request_echo(count=COUNT, port=8700)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    return testbed, session


class TestFlow:
    def test_session_completes(self, completed_session):
        _, session = completed_session
        assert session.done
        assert session.client_outcome.status == "completed"
        assert session.server_outcome.status == "completed"

    def test_measurement_decodes(self, completed_session):
        _, session = completed_session
        echo = EchoMeasurement.from_result(
            session.client_outcome.result, probes_sent=COUNT
        )
        assert echo.received == COUNT
        assert 15.0 < echo.mean_rtt_ms() < 40.0
        server = ServerReport.from_result(session.server_outcome.result)
        assert server.echoes == COUNT

    def test_delay_to_measurement_is_subsecond(self, completed_session):
        # §V-B: two finality waits + setup => sub-second reaction.
        _, session = completed_session
        assert 0.0 < session.delay_to_measurement < 1.0

    def test_executors_got_paid(self, completed_session):
        testbed, session = completed_session
        # Escrow fully drained back out to the executors.
        assert testbed.ledger.contract_balances["debuglet_market"] == 0

    def test_certificates_present_and_distinct(self, completed_session):
        _, session = completed_session
        client_cert = session.client_outcome.certificate
        server_cert = session.server_outcome.certificate
        assert client_cert is not None and server_cert is not None
        assert (client_cert.asn, client_cert.interface) == (1, 2)
        assert (server_cert.asn, server_cert.interface) == (3, 1)

    def test_chain_verifies_after_flow(self, completed_session):
        testbed, _ = completed_session
        testbed.ledger.verify_chain()

    def test_agents_saw_their_applications(self, completed_session):
        testbed, session = completed_session
        assert session.client_application in testbed.agents[(1, 2)].handled_applications
        assert session.server_application in testbed.agents[(3, 1)].handled_applications


class TestResultPayload:
    def test_roundtrip(self, completed_session):
        testbed, session = completed_session
        agent = testbed.agents[(1, 2)]
        record = agent.executor.executions[-1]
        blob = encode_result_payload(record)
        result, status, certificate = decode_result_payload(blob)
        assert result == record.result
        assert status == record.status
        assert certificate.result_hash == record.certificate.result_hash

    def test_malformed_payload_rejected(self):
        from repro.common.errors import DebugletError

        with pytest.raises(DebugletError):
            decode_result_payload(b"not json")
