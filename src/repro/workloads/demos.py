"""The scenarios behind the CLI's demos, each built and run once.

Every ``run_*`` function builds its world, runs it, and returns what
``repro <command>`` prints; the CLI only parses arguments and prints, and
``tests/integration/test_cli.py`` checks the two against each other. The
audit demo is assembled from the Byzantine battery's helpers
(``tests/byzantine``), which live here for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.gas import sui_to_mist
from repro.chaos import ChaosFault, ChaosInjector
from repro.core.audit import AuditConfig, Auditor
from repro.core.fleetmgr import CapabilityRecord, ExecutorState
from repro.core.localization import FaultLocalizer, LocalizationReport
from repro.core.marketplace import MeasurementSession
from repro.core.probing import SegmentProber
from repro.core.results import EchoMeasurement
from repro.core.verification import ChainVerifier
from repro.netsim.faults import FaultInjector, FaultLocation
from repro.netsim.topology import InterfaceId
from repro.pathaware.segments import PathSegment
from repro.workloads.scenarios import (
    CLIENT_VANTAGE,
    SERVER_VANTAGE,
    MarketplaceTestbed,
    deployed_chain,
)

# ------------------------------------------------------------- quickstart


@dataclass
class QuickstartRun:
    path: PathSegment
    session: MeasurementSession
    echo: EchoMeasurement


def run_quickstart(*, probes: int = 30, seed: int = 1, obs=None) -> QuickstartRun:
    """The §IV-A flow once: buy, run, fetch, and verify one echo session."""
    testbed = MarketplaceTestbed.build(n_ases=3, seed=seed, obs=obs)
    session = testbed.request_echo(count=probes)
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    echo = EchoMeasurement.from_result(
        session.client_outcome.result, probes_sent=probes
    )
    ChainVerifier(testbed.ledger, testbed.market).verify_result(
        session.client_application
    )
    testbed.ledger.verify_chain()
    return QuickstartRun(
        path=testbed.chain.registry.shortest(1, 3), session=session, echo=echo
    )


# ------------------------------------------------------------- chaos demo


@dataclass
class ChaosRun:
    fault: ChaosFault
    session: MeasurementSession
    escrow_locked: int


def run_chaos_demo(
    fault: str = "crash", *, probes: int = 30, seed: int = 1, obs=None
) -> ChaosRun:
    """One echo session surviving ``fault``: ``crash``, ``drop``,
    ``delay``, ``txfail`` or ``expiry`` (DESIGN.md §8)."""
    testbed = MarketplaceTestbed.build(n_ases=3, seed=seed, obs=obs)
    simulator = testbed.chain.simulator
    injector = ChaosInjector(simulator, testbed.ledger, seed=seed)
    server_agent = testbed.agents[SERVER_VANTAGE]
    if fault == "txfail":
        # Outage covering the initial purchase: the initiator retries with
        # backoff until the ledger comes back.
        injected = injector.fail_transactions(
            start=simulator.now, end=simulator.now + 3.0
        )
    session = testbed.request_echo(
        count=probes, deadline_margin=10.0,
        max_attempts=1 if fault == "expiry" else 2,
    )
    if fault == "crash":
        # The server-side executor dies as the window opens, killing the
        # scheduled executions; it is back up before the deadline, so
        # attempt 2 buys a fresh slot and succeeds.
        injected = injector.crash_executor(
            server_agent.executor,
            at=session.window_start + 0.1,
            restart_at=session.window_end + 5.0,
        )
    elif fault == "drop":
        # Certified results are produced but never published until after
        # the first deadline; the refund + failover path recovers.
        injected = injector.drop_publications(
            server_agent, start=0.0, end=session.window_end + 10.0
        )
    elif fault == "delay":
        # Publications stall past the fault window, then go through.
        injected = injector.delay_publications(
            server_agent, start=0.0, end=session.window_end + 2.0, extra=1.0
        )
    elif fault == "expiry":
        # The executors renege before the window opens; the initiator
        # reclaims its escrow once the deadline passes.
        injected = injector.expire_slots_early(
            server_agent, at=session.window_start
        )
        injector.expire_slots_early(
            testbed.agents[CLIENT_VANTAGE], at=session.window_start
        )
    testbed.initiator.run_until_done(session, simulator, timeout=900.0)
    locked = testbed.ledger.contract_balances.get("debuglet_market", 0)
    testbed.ledger.verify_chain()
    return ChaosRun(fault=injected, session=session, escrow_locked=locked)


# ------------------------------------------- Byzantine executors and audit

#: The battery corrupts the client-side executor at AS1.
BYZANTINE_VANTAGE = CLIENT_VANTAGE
STAKE = sui_to_mist(5)


def build_audited_testbed(
    seed: int = 1, *, audit_rate: float = 1.0, obs=None, **kwargs
) -> tuple[MarketplaceTestbed, Auditor]:
    """A 3-AS staked testbed plus a registered on-chain auditor."""
    testbed = MarketplaceTestbed.build(
        n_ases=3,
        seed=seed,
        executor_stake=STAKE,
        obs=obs,
        initiator_funding=sui_to_mist(400),
        **kwargs,
    )
    auditor = testbed.make_auditor(
        config=AuditConfig(audit_rate=audit_rate, seed=seed), obs=obs
    )
    return testbed, auditor


def corrupt(testbed, strategy: str, *, seed: int = 1, **params):
    """Attach a seeded Byzantine corruptor to the executor at
    ``BYZANTINE_VANTAGE``; returns it (``.attacks``)."""
    injector = ChaosInjector(testbed.chain.simulator, testbed.ledger, seed=seed)
    fault = injector.corrupt_executor(
        testbed.fleet.get(*BYZANTINE_VANTAGE), strategy=strategy, start=0.0,
        seed=seed, **params,
    )
    return fault.corruptor


def add_forward_loss(testbed, loss: float = 0.25) -> None:
    """Real loss on AS1→AS2 so a fault-hiding liar has faults to hide."""
    FaultInjector(testbed.chain.topology).link_loss(
        InterfaceId(1, 2), InterfaceId(2, 1),
        loss=loss, start=0.0, end=float("inf"), directions="forward",
    )


def run_echo_session(
    testbed,
    client=CLIENT_VANTAGE,
    server=SERVER_VANTAGE,
    *,
    count: int = 8,
    timeout_us: int = 1_000_000,
) -> MeasurementSession:
    """Request, run to completion, and return one echo session."""
    session = testbed.request_echo(
        client, server, count=count, timeout_us=timeout_us
    )
    testbed.initiator.run_until_done(
        session, testbed.chain.simulator, timeout=3600.0
    )
    return session


def run_support_sessions(testbed, *, count: int = 8) -> list[MeasurementSession]:
    """Independent vantages that give cross-validation its quorum:
    the honest reverse path plus two sub-segment votes composed via
    the intermediate AS2."""
    return [
        run_echo_session(testbed, (3, 1), (1, 2), count=count),
        run_echo_session(testbed, (2, 1), (1, 2), count=count),
        run_echo_session(testbed, (2, 2), (3, 1), count=count),
    ]


def audit_sessions(testbed, auditor, sessions) -> list[dict]:
    """Feed completed sessions to the auditor, drain, cross-validate."""
    for session in sessions:
        auditor.on_session_complete(session)
    testbed.chain.simulator.run()
    auditor.finalize()
    return auditor.convictions


@dataclass
class AuditRun:
    attacks: int
    sessions_audited: int
    convictions: list[dict]
    tokens_slashed: int
    #: The market's conviction map: vantage key -> conviction records.
    conviction_map: dict[str, list[dict]]
    stake_map: dict[str, int]


def run_audit_demo(
    strategy: str = "forge_values",
    *,
    audit_rate: float = 0.25,
    sessions: int = 8,
    probes: int = 10,
    seed: int = 1,
    obs=None,
) -> AuditRun:
    """A Byzantine executor at AS1 against the audit pipeline (§11)."""
    testbed, auditor = build_audited_testbed(seed, audit_rate=audit_rate, obs=obs)
    if strategy == "hide_faults":
        add_forward_loss(testbed)
    corruptor = None
    if strategy == "forge_consistent":
        corruptor = corrupt(testbed, "forge_values", seed=seed, forge_log=True)
    elif strategy != "honest":
        corruptor = corrupt(testbed, strategy, seed=seed)
    timeout_us = 200_000 if strategy == "hide_faults" else 1_000_000
    # Run every session first, audit afterwards: the first conviction
    # bars the slashed executor from publishing (result_ready refuses),
    # which would wedge its still-pending sessions mid-demo.
    runs = [
        run_echo_session(testbed, count=probes, timeout_us=timeout_us)
        for _ in range(sessions)
    ]
    if strategy == "forge_consistent":
        runs += run_support_sessions(testbed, count=probes)
    audit_sessions(testbed, auditor, runs)
    state = testbed.market.state
    run = AuditRun(
        attacks=len(corruptor.attacks) if corruptor is not None else 0,
        sessions_audited=auditor.sessions_audited,
        convictions=auditor.convictions,
        tokens_slashed=testbed.ledger.tokens_slashed,
        conviction_map=state["conviction_map"],
        stake_map=state["stake_map"],
    )
    testbed.ledger.verify_chain()
    return run


# ------------------------------------------------------------- fleet demo


@dataclass
class FleetDemoRun:
    admitted: bool
    admitted_read_only: bool
    denial_reason: str
    session: MeasurementSession
    drained: ExecutorState
    drained_address: object
    crashed: ExecutorState
    heartbeats_missed: int
    reregistered: ExecutorState
    registrations: int
    heartbeat_lost: ExecutorState
    heartbeat_lost_crashed: bool
    lifecycle_log: list
    counts: dict
    #: Every member's state once the manager has stopped.
    final: dict[tuple[int, int], ExecutorState]


#: The fleet demo's heartbeat interval (simulated seconds).
FLEET_DEMO_HEARTBEAT = 5.0


def run_fleet_demo(*, probes: int = 30, seed: int = 1, obs=None) -> FleetDemoRun:
    """The fleet lifecycle on a 3-AS marketplace (DESIGN.md §12): scoped
    admission, a graceful drain with on-chain deregistration, a crash
    followed by eviction and re-registration, and a heartbeat-loss
    eviction of a healthy executor."""
    hb = FLEET_DEMO_HEARTBEAT
    testbed = MarketplaceTestbed.build(n_ases=3, seed=seed, obs=obs)
    simulator = testbed.chain.simulator
    manager = testbed.make_fleet_manager(heartbeat_interval=hb)
    injector = ChaosInjector(simulator, testbed.ledger, seed=seed)
    client_app, server_app = testbed.echo_pair(count=probes)

    # Admission scope: the verifier-backed allowlist check in both verdicts.
    admitted = manager.preflight(CLIENT_VANTAGE, client_app)
    member = manager.get(CLIENT_VANTAGE)
    member.capabilities = CapabilityRecord.read_only()
    admitted_read_only = manager.preflight(CLIENT_VANTAGE, client_app)
    denial_reason = member.admission_log[-1].reason
    member.capabilities = CapabilityRecord.from_policy(member.executor.policy)

    # A session through the managed fleet while everything is active.
    session = testbed.initiator.request_measurement(
        client_app, server_app, CLIENT_VANTAGE, SERVER_VANTAGE, duration=30.0
    )
    testbed.initiator.run_until_done(session, simulator)

    # Graceful drain: 2:1 stops selling, retires idle, leaves the chain.
    manager.drain((2, 1))
    manager.run_until(simulator.now + 3 * hb)
    drained = manager.state_of((2, 1))
    drained_address = testbed.market.executor_address(2, 1)

    # Crash + eviction + re-registration: 2:2 goes down long enough to be
    # evicted, restarts, and re-registers (its stake was never touched).
    crash_at = simulator.now + hb
    restart_at = crash_at + (manager.evict_beats + 1.5) * hb
    injector.crash_executor(
        testbed.agents[(2, 2)].executor, at=crash_at, restart_at=restart_at
    )
    manager.run_until(restart_at + 0.5 * hb)
    crashed = manager.state_of((2, 2))
    heartbeats_missed = manager.heartbeats_missed
    manager.reregister((2, 2))
    reregistered = manager.state_of((2, 2))
    registrations = manager.get((2, 2)).registrations

    # Heartbeat loss: 3:1 stays healthy but its control channel is cut.
    injector.lose_heartbeats(manager.get((3, 1)), start=simulator.now)
    manager.run_until(simulator.now + (manager.evict_beats + 2) * hb)
    heartbeat_lost = manager.state_of((3, 1))
    heartbeat_lost_crashed = manager.get((3, 1)).executor.crashed

    manager.stop()
    run = FleetDemoRun(
        admitted=admitted,
        admitted_read_only=admitted_read_only,
        denial_reason=denial_reason,
        session=session,
        drained=drained,
        drained_address=drained_address,
        crashed=crashed,
        heartbeats_missed=heartbeats_missed,
        reregistered=reregistered,
        registrations=registrations,
        heartbeat_lost=heartbeat_lost,
        heartbeat_lost_crashed=heartbeat_lost_crashed,
        lifecycle_log=manager.lifecycle_log,
        counts=manager.counts(),
        final={vantage: manager.state_of(vantage) for vantage in sorted(testbed.agents)},
    )
    testbed.ledger.verify_chain()
    return run


# ---------------------------------------------- localization and placement


@dataclass
class LocalizeRun:
    fault: FaultLocation
    report: LocalizationReport

    @property
    def correct(self) -> bool:
        return self.report.found(self.fault)


def run_localize(
    n_ases: int = 10,
    *,
    fault_link: int | None = None,
    strategy: str = "binary",
    probes: int = 15,
    seed: int = 0,
) -> LocalizeRun:
    """Localize a +20 ms delay on link ``fault_link`` (1-based, default
    the last) of an ``n_ases`` chain, end to end on sandboxed probes."""
    link = n_ases - 1 if fault_link is None else fault_link
    chain, fleet = deployed_chain(n_ases, seed=seed, fleet_seed=seed + 1)
    fault = FaultInjector(chain.topology).link_delay(
        InterfaceId(link, 2), InterfaceId(link + 1, 1),
        extra_delay=20e-3, start=0.0, end=1e12,
    )
    localizer = FaultLocalizer(SegmentProber(fleet, probes=probes, interval_us=5000))
    report = localizer.localize(chain.registry.shortest(1, n_ases), strategy=strategy)
    return LocalizeRun(fault=fault.location, report=report)


def live_candidates(n_ases: int, *, seed: int):
    """Placement candidates from live directory advertisements: every
    executor of a deployed ``n_ases`` chain advertises at the border
    price plus its ASN. Returns ``(segment, pool)`` for the end-to-end
    path."""
    from repro.core.discovery import DecentralizedDirectory
    from repro.core.placement import BORDER_PRICE, candidates_from_directory

    chain, fleet = deployed_chain(n_ases, seed=seed, fleet_seed=seed)
    directory = DecentralizedDirectory(chain.registry)
    for vantage in fleet.vantages():
        directory.advertise(fleet.get(*vantage), price=BORDER_PRICE + vantage[0])
    segment = chain.registry.shortest(1, n_ases)
    return segment, candidates_from_directory(directory, segment)
