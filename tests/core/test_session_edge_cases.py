"""Session-lifecycle edge cases that previously had no coverage:
capacity-exhaustion queueing, double-selling a slot, publishing against
an unknown application id, and executor key rotation."""

import pytest

from repro.chain.crypto import KeyPair
from repro.common.errors import ChainError, VerificationError
from repro.core.executor import ResultCertificate
from repro.core.marketplace import SessionState
from repro.core.verification import verify_certificate

from tests.chaos.helpers import (
    assert_escrow_conserved,
    build_testbed,
)


def test_capacity_exhaustion_queues_and_serves_both_sessions():
    """With capacity 1 per executor, two overlapping sessions cannot run
    concurrently — the second queues behind the first and both certify."""
    testbed = build_testbed()
    for agent in testbed.agents.values():
        agent.executor.concurrent_capacity = 1
    first = testbed.request_echo(count=8, port=7801, deadline_margin=60.0)
    second = testbed.request_echo(count=8, port=7802, deadline_margin=60.0)
    testbed.initiator.run_until_done(first, testbed.chain.simulator)
    testbed.initiator.run_until_done(second, testbed.chain.simulator)
    assert first.state is SessionState.CERTIFIED
    assert second.state is SessionState.CERTIFIED
    for vantage in ((1, 2), (3, 1)):
        executor = testbed.agents[vantage].executor
        assert len(executor.executions) == 2
        assert all(r.status == "completed" for r in executor.executions)
    assert_escrow_conserved(testbed)
    testbed.ledger.verify_chain()


def test_purchase_of_already_sold_slot_reverts():
    testbed = build_testbed()
    wallet = testbed.initiator.wallet
    lookup = wallet.must_call(
        "debuglet_market", "lookup_slot",
        1, 2, 3, 1, 1, 128, 10, 30.0, 1.0,
    ).return_value
    client_app, server_app = testbed.echo_pair()
    args = (
        1, 2, 3, 1,
        lookup["client_slot_start"], lookup["server_slot_start"],
        lookup["start"], lookup["end"],
        client_app.to_wire(), client_app.manifest.as_dict(),
        server_app.to_wire(), server_app.manifest.as_dict(),
    )
    wallet.must_call(
        "debuglet_market", "purchase_slot", *args,
        value=lookup["total_price"],
    )
    # Same slots again: sold inventory must not be resellable.
    with pytest.raises(ChainError, match="no slot starting at"):
        wallet.must_call(
            "debuglet_market", "purchase_slot", *args,
            value=lookup["total_price"],
        )
    # The failed purchase rolled back: no tokens left with the contract
    # beyond the first purchase's escrow.
    assert_escrow_conserved(testbed)
    testbed.ledger.verify_chain()


def test_result_ready_for_unknown_application_id_fails_cleanly():
    testbed = build_testbed()
    agent = testbed.agents[(1, 2)]
    bogus = "ab" * 16  # well-formed object id that was never created
    with pytest.raises(ChainError):
        agent.wallet.must_call(
            "debuglet_market", "result_ready", bogus, b"{}"
        )
    testbed.ledger.verify_chain()


def test_rotated_executor_key_does_not_invalidate_old_certificates():
    testbed = build_testbed()
    session = testbed.request_echo(deadline_margin=10.0)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.CERTIFIED
    old_certificate = session.client_outcome.certificate
    executor = testbed.agents[(1, 2)].executor

    # Rotate the executor's keypair after the fact.
    executor.keypair = KeyPair.deterministic("rotated-key")

    # The published certificate embeds the *old* public key and still
    # verifies against the result bytes it covered.
    verify_certificate(
        old_certificate,
        result=session.client_outcome.result,
        expected_vantage=(1, 2),
    )

    # Re-registering the vantage under the new (different-address) key
    # must revert: the binding belongs to the original address.
    from repro.chain.ledger import Wallet

    rotated_wallet = Wallet(testbed.ledger, executor.keypair)
    testbed.ledger.faucet(rotated_wallet.address, 10_000_000_000)
    with pytest.raises(ChainError, match="already registered"):
        rotated_wallet.must_call(
            "debuglet_market", "register_executor", 1, 2
        )

    # A forged certificate mixing the old public key with a signature from
    # the rotated key must not verify.
    forged_signature = executor.keypair.sign(old_certificate.signing_payload())
    forged = ResultCertificate(
        asn=old_certificate.asn,
        interface=old_certificate.interface,
        code_hash=old_certificate.code_hash,
        result_hash=old_certificate.result_hash,
        started_at=old_certificate.started_at,
        finished_at=old_certificate.finished_at,
        executor_public_key=old_certificate.executor_public_key,
        signature=forged_signature,
    )
    with pytest.raises(VerificationError):
        verify_certificate(forged, result=session.client_outcome.result)
    testbed.ledger.verify_chain()
