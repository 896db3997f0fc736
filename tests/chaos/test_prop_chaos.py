"""Property tests: the lifecycle invariants hold for *randomized* chaos.

Hypothesis draws the fault kind, its timing offset within the session
window, and the scenario seed; whatever the schedule, a deadline-armed
session must reach a terminal state with escrow conserved and ledger
history intact. All time is simulated — shrinking a failing example
replays the exact schedule.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosInjector
from repro.core.marketplace import TERMINAL_STATES

from tests.chaos.helpers import (
    assert_escrow_conserved,
    build_testbed,
)

pytestmark = pytest.mark.chaos

FAULT_KINDS = ("crash", "crash+restart", "drop", "delay", "txfail",
               "finality", "expiry")

COMMON_SETTINGS = settings(
    max_examples=12,
    deadline=None,  # simulated time only; wall-clock per example varies
    suppress_health_check=[HealthCheck.too_slow],
)


def _inject(injector, testbed, session, kind: str, offset: float):
    at = session.window_start + offset
    if kind == "crash":
        injector.crash_executor(testbed.agents[(3, 1)].executor, at=at)
    elif kind == "crash+restart":
        injector.crash_executor(
            testbed.agents[(3, 1)].executor,
            at=at,
            restart_at=session.window_end + 5.0,
        )
    elif kind == "drop":
        injector.drop_publications(
            testbed.agents[(3, 1)], start=0.0, end=session.window_end + 60.0
        )
    elif kind == "delay":
        injector.delay_publications(
            testbed.agents[(3, 1)],
            start=0.0,
            end=at + 2.0,
            extra=1.0,
        )
    elif kind == "txfail":
        injector.fail_transactions(start=at, end=at + 3.0)
    elif kind == "finality":
        injector.delay_finality(extra=1.5, start=0.0, end=at + 30.0)
    elif kind == "expiry":
        injector.expire_slots_early(testbed.agents[(3, 1)], at=at)


@COMMON_SETTINGS
@given(
    kind=st.sampled_from(FAULT_KINDS),
    offset=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=3),
)
def test_any_fault_any_timing_reaches_terminal_state(kind, offset, seed):
    testbed = build_testbed(seed=seed)
    sim = testbed.chain.simulator
    injector = ChaosInjector(sim, testbed.ledger, seed=seed)
    session = testbed.request_echo(deadline_margin=10.0, max_attempts=2)
    _inject(injector, testbed, session, kind, offset)
    testbed.initiator.run_until_done(session, sim, timeout=3_000.0)
    sim.run()  # drain late retries/refunds before checking the books
    assert session.state in TERMINAL_STATES
    assert session.state_history[-1][1] is session.state
    assert_escrow_conserved(testbed)
    testbed.ledger.verify_chain()
    # Degraded sessions must explain themselves.
    if session.partial:
        missing = [o for o in session.outcomes.values() if not o.status]
        assert all(o.failure for o in missing)


@COMMON_SETTINGS
@given(
    n_faults=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=5),
)
def test_seeded_random_fault_schedules_replay_identically(n_faults, seed):
    def run_once():
        testbed = build_testbed(seed=0)
        sim = testbed.chain.simulator
        injector = ChaosInjector(sim, testbed.ledger, seed=seed)
        session = testbed.request_echo(deadline_margin=10.0, max_attempts=2)
        agents = [testbed.agents[(1, 2)], testbed.agents[(3, 1)]]
        for _ in range(n_faults):
            injector.random_fault(
                agents,
                start=session.window_start,
                end=session.window_end + 5.0,
            )
        testbed.initiator.run_until_done(session, sim, timeout=3_000.0)
        sim.run()
        assert session.state in TERMINAL_STATES
        assert_escrow_conserved(testbed)
        testbed.ledger.verify_chain()
        return (
            session.state_names,
            [(f.kind.value, f.target, f.start, f.end)
             for f in injector.injected],
            testbed.ledger.state_digest().hex(),
        )

    assert run_once() == run_once()
