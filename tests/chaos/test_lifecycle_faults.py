"""Full marketplace lifecycles under every fault class.

Each test runs a complete request → purchase → execute → certify flow
with one chaos fault injected, and asserts the invariant bundle that
must hold in *every* schedule:

* escrow conservation — each application's tokens are either paid out to
  the executor (``results_map``) or refunded to the initiator, never
  both and never neither (once the session is terminal);
* no session ends in a non-terminal state;
* ``verify_chain()`` passes — chaos never corrupts ledger history;
* identical seeds produce bit-identical outcomes.
"""

import pytest

from repro.chaos import ChaosInjector
from repro.core.marketplace import SessionState

from tests.chaos.helpers import (
    assert_escrow_conserved,
    assert_invariants,
    build_testbed,
    lifecycle_fingerprint,
)

pytestmark = pytest.mark.chaos


def test_baseline_without_faults_certifies():
    testbed = build_testbed()
    session = testbed.request_echo(deadline_margin=10.0)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.CERTIFIED
    assert session.state_names == ["pending", "purchased", "running", "certified"]
    assert not session.partial
    assert_invariants(testbed, session)


def test_executor_crash_without_restart_refunds_escrow():
    testbed = build_testbed()
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger)
    session = testbed.request_echo(deadline_margin=10.0)
    injector.crash_executor(
        testbed.agents[(3, 1)].executor, at=session.window_start + 0.1
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.REFUNDED
    # Only the server-side escrow is refunded; the client side certified
    # and paid its executor.
    assert len(session.refunds) == 1
    assert session.server_outcome.failure
    assert session.partial
    assert_invariants(testbed, session)


def test_executor_crash_with_restart_fails_over_and_certifies():
    testbed = build_testbed()
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger)
    session = testbed.request_echo(deadline_margin=10.0, max_attempts=2)
    injector.crash_executor(
        testbed.agents[(3, 1)].executor,
        at=session.window_start + 0.1,
        restart_at=session.window_end + 5.0,
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.CERTIFIED
    assert session.attempt == 2
    assert "timed-out" in session.state_names
    # The first attempt's unserved escrow came back before the retry.
    assert len(session.refunds) == 1
    assert len(session.superseded_applications) == 2
    assert_invariants(testbed, session)


def test_publication_drop_times_out_and_refunds():
    testbed = build_testbed()
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger)
    session = testbed.request_echo(deadline_margin=10.0)
    agent = testbed.agents[(3, 1)]
    injector.drop_publications(agent, start=0.0, end=session.window_end + 60.0)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.REFUNDED
    assert agent.dropped_publications  # the result existed but never shipped
    assert session.server_outcome.failure
    assert_invariants(testbed, session)


def test_publication_delay_still_certifies_within_deadline():
    testbed = build_testbed()
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger)
    session = testbed.request_echo(deadline_margin=10.0)
    injector.delay_publications(
        testbed.agents[(3, 1)],
        start=0.0,
        end=session.window_end + 2.0,
        extra=1.0,
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.CERTIFIED
    assert session.attempt == 1
    assert_invariants(testbed, session)


def test_tx_outage_during_purchase_is_retried():
    testbed = build_testbed()
    sim = testbed.chain.simulator
    injector = ChaosInjector(sim, testbed.ledger)
    injector.fail_transactions(start=sim.now, end=sim.now + 2.0)
    session = testbed.request_echo(deadline_margin=10.0)
    assert session.state is SessionState.PENDING  # gated, not raised
    testbed.initiator.run_until_done(session, sim)
    assert session.state is SessionState.CERTIFIED
    assert session.purchase_retries > 0
    assert_invariants(testbed, session)


def test_tx_outage_during_publication_is_retried_by_agent():
    testbed = build_testbed()
    sim = testbed.chain.simulator
    injector = ChaosInjector(sim, testbed.ledger)
    session = testbed.request_echo(deadline_margin=30.0)
    # Outage covering the first seconds of the window, when the (short)
    # executions finish and both agents publish; the agents' seeded
    # exponential backoff outlives the outage.
    agent_addresses = {
        testbed.agents[(1, 2)].wallet.address,
        testbed.agents[(3, 1)].wallet.address,
    }
    for address in sorted(agent_addresses):
        injector.fail_transactions(
            start=session.window_start,
            end=session.window_start + 5.0,
            sender=address,
        )
    testbed.initiator.run_until_done(session, sim)
    assert session.state is SessionState.CERTIFIED
    agents = [testbed.agents[(1, 2)], testbed.agents[(3, 1)]]
    assert sum(a.publication_retries for a in agents) > 0
    assert all(a.failed_publications == [] for a in agents)
    assert_invariants(testbed, session)


def test_permanent_tx_outage_fails_the_session():
    testbed = build_testbed()
    sim = testbed.chain.simulator
    injector = ChaosInjector(sim, testbed.ledger)
    # Outage that outlives every backoff schedule: purchase retries
    # exhaust and the session fails cleanly instead of hanging.
    injector.fail_transactions(start=sim.now, end=sim.now + 10_000.0)
    session = testbed.request_echo(deadline_margin=10.0)
    testbed.initiator.run_until_done(session, sim)
    assert session.state is SessionState.FAILED
    assert "purchase failed after retries" in session.failure_reason
    assert session.outcomes == {}  # nothing was ever escrowed
    assert_escrow_conserved(testbed)


def test_finality_delay_slows_but_does_not_break_the_flow():
    testbed = build_testbed()
    sim = testbed.chain.simulator
    injector = ChaosInjector(sim, testbed.ledger)
    injector.delay_finality(extra=2.0, start=sim.now, end=sim.now + 1_000.0)
    session = testbed.request_echo(deadline_margin=30.0)
    testbed.initiator.run_until_done(session, sim)
    assert session.state is SessionState.CERTIFIED
    assert_invariants(testbed, session)


def test_early_slot_expiry_refunds_the_initiator():
    testbed = build_testbed()
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger)
    session = testbed.request_echo(deadline_margin=10.0)
    injector.expire_slots_early(testbed.agents[(3, 1)], at=session.window_start)
    injector.expire_slots_early(testbed.agents[(1, 2)], at=session.window_start)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.REFUNDED
    assert len(session.refunds) == 2
    assert sum(session.refunds.values()) == session.total_price
    assert session.partial
    assert_invariants(testbed, session)


@pytest.mark.parametrize("fault", ["crash", "drop", "txfail", "expiry"])
def test_same_seed_same_schedule_is_bit_identical(fault):
    def run_once(seed):
        testbed = build_testbed(seed=seed)
        sim = testbed.chain.simulator
        injector = ChaosInjector(sim, testbed.ledger, seed=seed)
        if fault == "txfail":
            injector.fail_transactions(start=sim.now, end=sim.now + 2.0)
        session = testbed.request_echo(deadline_margin=10.0, max_attempts=2)
        if fault == "crash":
            injector.crash_executor(
                testbed.agents[(3, 1)].executor,
                at=session.window_start + 0.1,
                restart_at=session.window_end + 5.0,
            )
        elif fault == "drop":
            injector.drop_publications(
                testbed.agents[(3, 1)],
                start=0.0,
                end=session.window_end + 5.0,
            )
        elif fault == "expiry":
            injector.expire_slots_early(
                testbed.agents[(3, 1)], at=session.window_start
            )
        testbed.initiator.run_until_done(session, sim, timeout=900.0)
        assert_invariants(testbed, session)
        return lifecycle_fingerprint(testbed, session)

    assert run_once(11) == run_once(11)
