"""Session state machine and :meth:`Initiator.run_until_done` semantics."""

import pytest

from repro.chaos import ChaosInjector
from repro.common.errors import SessionStalled
from repro.core.marketplace import TERMINAL_STATES, SessionState

from tests.chaos.helpers import (
    assert_invariants,
    build_testbed,
)

pytestmark = pytest.mark.chaos


def test_state_history_is_time_ordered_with_one_terminal_state():
    testbed = build_testbed()
    session = testbed.request_echo(deadline_margin=10.0)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    times = [t for t, _ in session.state_history]
    assert times == sorted(times)
    terminal = [s for _, s in session.state_history if s in TERMINAL_STATES]
    assert len(terminal) == 1
    assert session.state_history[-1][1] is session.state


def test_legacy_sessions_have_no_deadline():
    testbed = build_testbed()
    session = testbed.request_echo()  # no deadline_margin
    assert session.deadline is None
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.CERTIFIED


def test_idle_simulator_with_unfinished_session_raises_session_stalled():
    testbed = build_testbed()
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger)
    # No deadline: a crashed executor means the server result never comes
    # and nothing is scheduled to recover — the old code busy-spun here.
    session = testbed.request_echo()
    injector.crash_executor(
        testbed.agents[(3, 1)].executor, at=session.window_start + 0.1
    )
    with pytest.raises(SessionStalled) as excinfo:
        testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert excinfo.value.session is session
    assert excinfo.value.state is session.state
    assert session.state.value in str(excinfo.value)
    assert not session.done


def test_run_until_done_enforces_the_hard_timeout():
    testbed = build_testbed()
    sim = testbed.chain.simulator
    injector = ChaosInjector(sim, testbed.ledger)
    session = testbed.request_echo()  # no deadline: never recovers
    injector.drop_publications(
        testbed.agents[(3, 1)], start=0.0, end=float("inf")
    )

    def heartbeat() -> None:  # keep the simulator from going idle
        sim.schedule(5.0, heartbeat)

    sim.schedule(5.0, heartbeat)
    with pytest.raises(SessionStalled) as excinfo:
        testbed.initiator.run_until_done(session, sim, timeout=50.0)
    assert "50" in str(excinfo.value)
    assert sim.now >= 50.0


def test_timed_out_session_reports_partial_outcome_with_reason():
    testbed = build_testbed()
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger)
    session = testbed.request_echo(deadline_margin=10.0)
    injector.drop_publications(
        testbed.agents[(3, 1)], start=0.0, end=session.window_end + 60.0
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.partial
    # Graceful degradation: the client half is a full certified result,
    # the server half explains exactly why it is missing.
    assert session.client_outcome.status == "completed"
    assert session.client_outcome.certificate is not None
    assert session.server_outcome.status == ""
    assert "deadline" in session.server_outcome.failure
    assert session.failure_reason
    assert_invariants(testbed, session)


def test_on_complete_fires_exactly_once_for_degraded_sessions():
    testbed = build_testbed()
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger)
    calls = []
    session = testbed.request_echo(
        deadline_margin=10.0, on_complete=lambda s: calls.append(s.state)
    )
    injector.crash_executor(
        testbed.agents[(3, 1)].executor, at=session.window_start + 0.1
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    testbed.chain.simulator.run()
    assert calls == [SessionState.REFUNDED]


def test_failover_supersedes_old_subscriptions_not_outcomes():
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
    # The terminal outcomes belong to the second attempt's applications.
    current = {o.application_id for o in session.outcomes.values()}
    assert current.isdisjoint(set(session.superseded_applications))
    assert session.client_application in current
    assert_invariants(testbed, session)


def test_deadline_is_armed_relative_to_the_purchased_window():
    testbed = build_testbed()
    session = testbed.request_echo(deadline_margin=7.5)
    assert session.deadline == pytest.approx(session.window_end + 7.5)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    assert session.state is SessionState.CERTIFIED
