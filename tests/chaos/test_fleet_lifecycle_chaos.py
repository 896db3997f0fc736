"""Chaos faults against the fleet lifecycle (DESIGN.md §12).

The chaos injector's executor crashes and heartbeat-loss gates drive the
FleetManager's liveness machinery: crashes miss beats and get evicted,
restarts re-register, severed control channels evict *healthy* executors
whose sold sessions still publish, and revoking a fault mid-window lets a
suspected member recover to active without ceremony.
"""

import pytest

from repro.chain.gas import sui_to_mist
from repro.chaos import ChaosInjector
from repro.core.fleetmgr import ExecutorState

from repro.workloads.scenarios import SERVER_VANTAGE

from tests.chaos.helpers import (
    assert_invariants,
    build_testbed,
    stake_outstanding,
)

pytestmark = [pytest.mark.chaos, pytest.mark.fleet]

HB = 2.0  # suspect after 4s of silence, evict after 8s


def build_managed(seed=0, **kwargs):
    testbed = build_testbed(seed=seed, **kwargs)
    manager = testbed.make_fleet_manager(heartbeat_interval=HB)
    injector = ChaosInjector(
        testbed.chain.simulator, testbed.ledger, seed=seed
    )
    return testbed, manager, injector


class TestCrashLifecycle:
    def test_crash_evicts_then_restart_reregisters(self):
        stake = sui_to_mist(2)
        testbed, manager, injector = build_managed(executor_stake=stake)
        staked_before = stake_outstanding(testbed)

        restart_at = 1.0 + (manager.evict_beats + 1.5) * HB
        injector.crash_executor(
            testbed.agents[SERVER_VANTAGE].executor,
            at=1.0, restart_at=restart_at,
        )
        manager.run_until(1.0 + manager.suspect_beats * HB + HB)
        assert manager.state_of(SERVER_VANTAGE) is ExecutorState.SUSPECTED
        manager.run_until(restart_at + 0.5 * HB)
        assert manager.state_of(SERVER_VANTAGE) is ExecutorState.EVICTED
        # Eviction never touches stake: that is the auditor's monopoly.
        assert stake_outstanding(testbed) == staked_before
        assert testbed.ledger.tokens_slashed == 0

        manager.reregister(SERVER_VANTAGE)
        assert manager.state_of(SERVER_VANTAGE) is ExecutorState.ACTIVE
        assert manager.get(SERVER_VANTAGE).registrations == 2
        manager.stop()
        assert_invariants(testbed)
        assert stake_outstanding(testbed) == staked_before

    def test_revoking_crash_recovers_without_eviction(self):
        testbed, manager, injector = build_managed()
        fault = injector.crash_executor(
            testbed.agents[SERVER_VANTAGE].executor, at=1.0
        )
        # Suspicion lands at the sweep one suspect-threshold past the last
        # beat (t=0); revoke before the next beat so it restores liveness
        # ahead of the eviction-threshold sweep.
        manager.run_until(manager.suspect_beats * HB + 0.5)
        assert manager.state_of(SERVER_VANTAGE) is ExecutorState.SUSPECTED
        fault.revoke()  # restarts the still-down executor immediately
        manager.run_until(manager.simulator.now + 2 * HB)
        assert manager.state_of(SERVER_VANTAGE) is ExecutorState.ACTIVE
        assert manager.get(SERVER_VANTAGE).missed_evictions == 0
        manager.stop()
        assert_invariants(testbed)


class TestHeartbeatLoss:
    def test_healthy_executor_evicted_while_session_still_publishes(self):
        # The control channel dies right as the window opens; the manager
        # evicts the member, but the executor itself is healthy and its
        # already-sold session certifies anyway — eviction stops future
        # sales, never in-flight work.
        testbed, manager, injector = build_managed(seed=3)
        simulator = testbed.chain.simulator
        session = testbed.request_echo(count=10)
        injector.lose_heartbeats(
            manager.get(SERVER_VANTAGE), start=session.window_start
        )
        testbed.initiator.run_until_done(session, simulator)
        # The echo burst certifies within seconds — before the silence
        # even crosses the suspicion threshold. Let the sim clock run on.
        assert session.state.value == "certified"
        manager.run_until(
            session.window_start + (manager.evict_beats + 2) * HB
        )
        member = manager.get(SERVER_VANTAGE)
        assert member.state is ExecutorState.EVICTED
        assert not member.executor.crashed
        # Delisted: the manager refuses to hand it new sessions.
        assert not manager.is_sellable(SERVER_VANTAGE)
        manager.stop()
        assert_invariants(testbed, session)

    def test_revoking_loss_restores_beats_before_eviction(self):
        testbed, manager, injector = build_managed(seed=4)
        fault = injector.lose_heartbeats(manager.get(SERVER_VANTAGE), start=1.0)
        manager.run_until(manager.suspect_beats * HB + 0.5)
        assert manager.state_of(SERVER_VANTAGE) is ExecutorState.SUSPECTED
        assert fault.fired
        fault.revoke()
        manager.run_until(manager.simulator.now + 2 * HB)
        assert manager.state_of(SERVER_VANTAGE) is ExecutorState.ACTIVE
        assert manager.heartbeats_missed > 0
        manager.stop()
        assert_invariants(testbed)
