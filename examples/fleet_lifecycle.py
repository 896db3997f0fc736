"""Executor fleet management end to end (DESIGN.md §14).

A FleetManager runs the lifecycle of a real 3-AS marketplace fleet:
capability-scoped admission (the verifier-backed "Runners v1" allowlist),
sim-clock heartbeats, a graceful drain that deregisters on-chain, a crash
that leads to liveness eviction and later re-registration, and a
heartbeat-loss eviction of a perfectly healthy executor. The closer plans
vantage placement for a localization campaign over the same path.

Run:  python examples/fleet_lifecycle.py
"""

from repro.chaos import ChaosInjector
from repro.core.fleetmgr import CapabilityRecord
from repro.core.placement import evaluate_strategies, synthetic_candidates
from repro.workloads import MarketplaceTestbed

PROBES = 20
HB = 5.0  # heartbeat interval, simulated seconds


def main() -> None:
    testbed = MarketplaceTestbed.build(n_ases=3, seed=11)
    simulator = testbed.chain.simulator
    manager = testbed.make_fleet_manager(heartbeat_interval=HB)
    injector = ChaosInjector(simulator, testbed.ledger, seed=11)
    print(f"fleet registered: {manager.counts()}")

    client_app, server_app = testbed.echo_pair(count=PROBES)

    # Capability-scoped admission: the same program, two records. The
    # verdict comes from verifier-inferred facts (host ops, fuel), not
    # from what the manifest claims.
    member = manager.get((1, 2))
    print(f"admission under the policy-derived record: "
          f"{manager.preflight((1, 2), client_app)}")
    member.capabilities = CapabilityRecord.read_only()
    print(f"admission under a read-only record:        "
          f"{manager.preflight((1, 2), client_app)}")
    print(f"  denial reason: {member.admission_log[-1].reason}")
    member.capabilities = CapabilityRecord.from_policy(member.executor.policy)

    # One marketplace session through the managed (all-active) fleet.
    session = testbed.initiator.request_measurement(
        client_app, server_app, (1, 2), (3, 1), duration=30.0
    )
    testbed.initiator.run_until_done(session, simulator)
    print(f"session through the managed fleet: {session.state.value}")

    # Graceful drain: stop selling, finish work, deregister on-chain.
    manager.drain((2, 1))
    manager.run_until(simulator.now + 3 * HB)
    print(f"drained 2:1 -> {manager.state_of((2, 1)).value} "
          f"(on-chain address: {testbed.market.executor_address(2, 1)})")

    # Crash -> missed heartbeats -> eviction -> restart -> re-register.
    crash_at = simulator.now + HB
    restart_at = crash_at + (manager.evict_beats + 1.5) * HB
    injector.crash_executor(
        testbed.agents[(2, 2)].executor, at=crash_at, restart_at=restart_at
    )
    manager.run_until(restart_at + 0.5 * HB)
    print(f"crashed 2:2 -> {manager.state_of((2, 2)).value}")
    manager.reregister((2, 2))
    print(f"re-registered 2:2 -> {manager.state_of((2, 2)).value} "
          f"(stake untouched: eviction is not slashing)")

    # Heartbeat loss: healthy executor, severed control channel.
    injector.lose_heartbeats(manager.get((3, 1)), start=simulator.now)
    manager.run_until(simulator.now + (manager.evict_beats + 2) * HB)
    lost = manager.get((3, 1))
    print(f"heartbeat loss 3:1 -> {lost.state.value} "
          f"(executor still healthy: {not lost.executor.crashed})")
    manager.stop()
    print(f"final fleet states: {manager.counts()}")

    # Placement: where should a localization campaign buy vantage points?
    pool = synthetic_candidates(8)
    plans = evaluate_strategies(8, pool, budget=300, seed=11)
    for strategy in ("border", "in_as", "random"):
        plan = plans[strategy]
        print(f"placement {strategy:<7}: {len(plan.chosen)} vantages, "
              f"cost {plan.cost}, mean suspect set "
              f"{plan.mean_suspect_set:.2f}")
    assert (plans["border"].mean_suspect_set
            <= plans["random"].mean_suspect_set)
    print("border co-location beats the random baseline")


if __name__ == "__main__":
    main()
