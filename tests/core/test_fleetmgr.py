"""Fleet manager: lifecycle, liveness, drain/retire, admission scope."""

import pytest

from repro.common.errors import ConfigurationError, PolicyViolation
from repro.contracts.debuglet_market import DebugletMarket
from repro.core.fleetmgr import (
    CapabilityRecord,
    ExecutorState,
    FleetManager,
)
from repro.workloads.scenarios import MarketplaceTestbed

pytestmark = pytest.mark.fleet

HB = 5.0


def build(seed=7, **kwargs):
    testbed = MarketplaceTestbed.build(3, seed=seed, **kwargs)
    manager = testbed.make_fleet_manager(heartbeat_interval=HB)
    return testbed, manager


def client_app(testbed):
    return testbed.echo_pair(count=4, port=8700)[0]


class TestLifecycle:
    def test_registration_is_immediately_active(self):
        _, manager = build()
        assert manager.counts() == {"active": 4}
        for vantage in manager.members:
            assert manager.is_sellable(vantage)

    def test_heartbeats_keep_members_active(self):
        _, manager = build()
        manager.run_until(6 * HB)
        member = manager.get((1, 2))
        assert member.state is ExecutorState.ACTIVE
        assert member.beats >= 6

    def test_double_registration_rejected(self):
        testbed, manager = build()
        with pytest.raises(ConfigurationError, match="already a fleet member"):
            manager.register(testbed.agents[(1, 2)])

    def test_crash_suspects_then_evicts(self):
        testbed, manager = build()
        testbed.agents[(1, 2)].executor.crash()
        manager.run_until(manager.suspect_beats * HB + HB + 0.1)
        assert manager.state_of((1, 2)) is ExecutorState.SUSPECTED
        manager.run_until(manager.evict_beats * HB + HB + 0.1)
        assert manager.state_of((1, 2)) is ExecutorState.EVICTED
        # Healthy peers are untouched.
        assert manager.state_of((3, 1)) is ExecutorState.ACTIVE

    def test_short_crash_recovers_without_eviction(self):
        testbed, manager = build()
        executor = testbed.agents[(1, 2)].executor
        executor.crash()
        manager.run_until(manager.suspect_beats * HB + HB + 0.1)
        assert manager.state_of((1, 2)) is ExecutorState.SUSPECTED
        executor.restart()
        manager.run_until(manager.simulator.now + 2 * HB)
        assert manager.state_of((1, 2)) is ExecutorState.ACTIVE

    def test_eviction_withdraws_slots_but_not_stake(self):
        testbed, manager = build(executor_stake=1_000_000)
        agent = testbed.agents[(1, 2)]
        assert testbed.market.available_slots(1, 2)
        assert testbed.market.stake_of(1, 2) == 1_000_000
        agent.executor.crash()
        manager.run_until((manager.evict_beats + 1) * HB + 0.1)
        assert manager.state_of((1, 2)) is ExecutorState.EVICTED
        # Eviction delists (no sellable inventory) but never slashes.
        assert testbed.market.available_slots(1, 2) == []
        assert testbed.market.stake_of(1, 2) == 1_000_000
        assert testbed.market.executor_address(1, 2) is not None

    def test_reregister_after_eviction(self):
        testbed, manager = build()
        agent = testbed.agents[(1, 2)]
        agent.executor.crash()
        manager.run_until((manager.evict_beats + 1) * HB + 0.1)
        with pytest.raises(ConfigurationError, match="is down"):
            manager.reregister((1, 2))
        agent.executor.restart()
        member = manager.reregister((1, 2))
        assert member.state is ExecutorState.ACTIVE
        assert member.registrations == 2
        assert manager.is_sellable((1, 2))

    def test_reregister_requires_terminal_state(self):
        _, manager = build()
        with pytest.raises(ConfigurationError, match="only evicted or retired"):
            manager.reregister((1, 2))

    def test_lifecycle_log_records_every_transition(self):
        testbed, manager = build()
        testbed.agents[(1, 2)].executor.crash()
        manager.run_until((manager.evict_beats + 1) * HB + 0.1)
        states = [
            (old, new) for _, v, old, new, _ in manager.lifecycle_log
            if v == (1, 2)
        ]
        assert states == [
            ("-", "registered"),
            ("registered", "active"),
            ("active", "suspected"),
            ("suspected", "evicted"),
        ]

    def test_stop_makes_simulator_drain(self):
        testbed, manager = build()
        manager.stop()
        testbed.chain.simulator.run_until_idle()  # must terminate


class TestDrainRetire:
    def test_drain_stops_selling_and_retires_idle_member(self):
        testbed, manager = build()
        manager.drain((1, 2))
        assert manager.state_of((1, 2)) is ExecutorState.DRAINING
        assert not manager.is_sellable((1, 2))
        assert testbed.market.available_slots(1, 2) == []
        manager.run_until(2 * HB + 0.1)
        assert manager.state_of((1, 2)) is ExecutorState.RETIRED
        # Retire deregisters on-chain and unsubscribes the agent.
        assert testbed.market.executor_address(1, 2) is None
        assert testbed.agents[(1, 2)]._subscription is None

    def test_drain_finishes_in_flight_session_first(self):
        testbed, manager = build()
        session = testbed.request_echo(count=4, port=8700)
        manager.drain((1, 2))
        assert manager.state_of((1, 2)) is ExecutorState.DRAINING
        testbed.initiator.run_until_done(session, testbed.chain.simulator)
        assert session.client_outcome.status == "completed"
        manager.run_until(manager.simulator.now + 2 * HB)
        assert manager.state_of((1, 2)) is ExecutorState.RETIRED
        # The in-flight escrow was paid out, not stranded.
        assert testbed.ledger.contract_balances["debuglet_market"] == 0

    def test_retire_returns_stake(self):
        testbed, manager = build(executor_stake=2_000_000)
        held_before = testbed.ledger.contract_balances["debuglet_market"]
        assert held_before >= 4 * 2_000_000  # all four stakes escrowed
        manager.drain((1, 2))
        manager.run_until(2 * HB + 0.1)
        assert manager.state_of((1, 2)) is ExecutorState.RETIRED
        assert testbed.market.stake_of(1, 2) == 0
        held_after = testbed.ledger.contract_balances["debuglet_market"]
        # Exactly this member's stake left escrow — paid to the owner,
        # not burned (deregistration of an unconvicted executor).
        assert held_before - held_after == 2_000_000
        assert testbed.ledger.tokens_slashed == 0

    def test_double_drain_rejected(self):
        _, manager = build()
        manager.drain((1, 2))
        with pytest.raises(ConfigurationError, match="cannot drain"):
            manager.drain((1, 2))

    def test_retired_member_can_reregister(self):
        testbed, manager = build()
        manager.drain((1, 2))
        manager.run_until(2 * HB + 0.1)
        assert manager.state_of((1, 2)) is ExecutorState.RETIRED
        member = manager.reregister((1, 2))
        assert member.state is ExecutorState.ACTIVE
        # Re-registration went back on-chain.
        assert testbed.market.executor_address(1, 2) is not None


class TestAdmission:
    def test_record_must_fit_executor_policy(self):
        testbed = MarketplaceTestbed.build(3, seed=7)
        manager = testbed.make_fleet_manager(enroll=False)
        with pytest.raises(ConfigurationError, match="does not"):
            manager.register(
                testbed.agents[(1, 2)],
                capabilities=CapabilityRecord(
                    protocols=("udp", "nonexistent-protocol")
                ),
            )

    def test_unknown_host_ops_rejected(self):
        testbed = MarketplaceTestbed.build(3, seed=7)
        manager = testbed.make_fleet_manager(enroll=False)
        with pytest.raises(ConfigurationError, match="unknown host ops"):
            manager.register(
                testbed.agents[(1, 2)],
                capabilities=CapabilityRecord(host_ops=("launch_missiles",)),
            )

    def test_protocol_scope_denies_out_of_scope_program(self):
        testbed = MarketplaceTestbed.build(3, seed=7)
        manager = FleetManager(testbed.chain.simulator, market=testbed.market)
        manager.register(
            testbed.agents[(1, 2)],
            capabilities=CapabilityRecord(protocols=("tcp",)),
        )
        with pytest.raises(PolicyViolation, match="protocols outside"):
            manager.check_program((1, 2), client_app(testbed))
        manager.stop()

    def test_read_only_posture_denies_active_prober(self):
        testbed = MarketplaceTestbed.build(3, seed=7)
        manager = FleetManager(testbed.chain.simulator, market=testbed.market)
        manager.register(
            testbed.agents[(1, 2)],
            capabilities=CapabilityRecord.read_only(),
        )
        # echo_client transmits (net_send) — outside the passive allowlist.
        with pytest.raises(PolicyViolation, match="host ops outside"):
            manager.check_program((1, 2), client_app(testbed))
        manager.stop()

    def test_fuel_ceiling_denies_expensive_program(self):
        testbed = MarketplaceTestbed.build(3, seed=7)
        manager = FleetManager(testbed.chain.simulator, market=testbed.market)
        manager.register(
            testbed.agents[(1, 2)],
            capabilities=CapabilityRecord(max_fuel=1),
        )
        with pytest.raises(PolicyViolation, match="fuel"):
            manager.check_program((1, 2), client_app(testbed))
        manager.stop()

    def test_in_scope_program_admitted_and_logged(self):
        testbed, manager = build()
        manager.check_program((1, 2), client_app(testbed))
        log = manager.admission_log_of((1, 2))
        # One registration entry plus the program decision.
        assert log[0].subject == "registration" and log[0].admitted
        assert log[-1].subject == "cli" and log[-1].admitted

    def test_denials_are_logged(self):
        testbed = MarketplaceTestbed.build(3, seed=7)
        manager = FleetManager(testbed.chain.simulator, market=testbed.market)
        manager.register(
            testbed.agents[(1, 2)],
            capabilities=CapabilityRecord(protocols=("tcp",)),
        )
        with pytest.raises(PolicyViolation):
            manager.check_program((1, 2), client_app(testbed))
        denied = [d for d in manager.admission_log_of((1, 2)) if not d.admitted]
        assert len(denied) == 1
        assert "protocols outside" in denied[0].reason
        manager.stop()

    def test_admit_guard_blocks_out_of_scope_submit(self):
        testbed = MarketplaceTestbed.build(3, seed=7)
        manager = FleetManager(testbed.chain.simulator, market=testbed.market)
        manager.register(
            testbed.agents[(1, 2)],
            capabilities=CapabilityRecord(protocols=("tcp",)),
        )
        executor = testbed.agents[(1, 2)].executor
        with pytest.raises(PolicyViolation):
            executor.admit(client_app(testbed))
        manager.stop()

    def test_preflight_false_for_unsellable_or_out_of_scope(self):
        testbed, manager = build()
        app = client_app(testbed)
        assert manager.preflight((1, 2), app)
        assert not manager.preflight((99, 1), app)  # unknown vantage
        manager.drain((1, 2))
        assert not manager.preflight((1, 2), app)  # draining, not sellable


class TestContractDeregistration:
    def test_only_owner_may_deregister(self):
        testbed, manager = build()
        other = testbed.agents[(3, 1)]
        from repro.common.errors import ChainError

        with pytest.raises(ChainError, match="does not own"):
            other.wallet.must_call(DebugletMarket.name, "deregister_executor", 1, 2)

    def test_deregistered_executor_cannot_publish(self):
        testbed, manager = build()
        manager.drain((1, 2))
        manager.run_until(2 * HB + 0.1)
        assert testbed.market.executor_address(1, 2) is None
        # Selling again requires registering again.
        agent = testbed.agents[(1, 2)]
        from repro.common.errors import ChainError

        with pytest.raises(ChainError, match="not registered"):
            agent.wallet.must_call(
                DebugletMarket.name, "register_time_slot", 1, 2, []
            )
