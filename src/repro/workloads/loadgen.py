"""``repro loadgen``: the fleet-scale marketplace load generator.

Ramps tens of thousands of measurement sessions into one ledger-backed
marketplace and reports sessions/sec, session-latency percentiles, and
ledger txs/sec — the reproduction's §V-B-style control-plane scale bench
(DESIGN.md §11). Two ledger modes are compared head-to-head:

- ``serial`` — the pre-fleet baseline: one checkpoint (with a folded
  shard state root) sealed per transaction;
- ``batched`` — block mode: one checkpoint per finality window.

Every transaction is signature-checked at submission in both; checkpoint
grouping is the only thing the mode changes.

The data plane is *synthetic*: executors admit instantly and "run" each
purchased application as a single timer, then certify and publish through
the real :class:`~repro.core.marketplace.ExecutorAgent` publication path
(gates, retries, backoff — so the chaos fault classes apply unchanged).
No netsim network or sandbox VM is involved: the bench isolates the
control plane — contract execution, escrow accounting, event dispatch,
checkpointing, crypto — which is exactly the part the sharded/batched
ledger accelerates.

With ``churn`` enabled the executor population itself becomes part of
the workload (DESIGN.md §14): a :class:`~repro.core.fleetmgr.FleetManager`
owns every pair's lifecycle, some pairs register late (mid-ramp), some
are gracefully drained, some crash and re-register after liveness
eviction, and some lose only their heartbeat channel (healthy executor,
silent control plane). Sessions then pick their vantage pair at *fire*
time from the manager's currently-sellable set — never from a draining
or evicted member — and the report's ``deterministic.fleet`` section
records the lifecycle ledger (state counts, transitions, heartbeats,
per-pair session spread) for the same-seed CI comparison.

Everything that happens in simulated time is seeded and deterministic:
two runs with the same config produce byte-identical observability
exports and the same ledger state digest. Wall-clock throughput numbers
live only in the returned report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.chain.crypto import KeyPair, backend_name, ed25519_batch_verify
from repro.chain.events import Event
from repro.chain.gas import sui_to_mist
from repro.chain.ledger import Ledger, Wallet
from repro.chaos.injector import ChaosInjector
from repro.common.errors import ConfigurationError, DebugletError
from repro.common.rng import derive_rng
from repro.common.ids import ObjectId
from repro.contracts.debuglet_market import (
    APPLICATION_KIND,
    DebugletMarket,
    ExecutionSlot,
)
from repro.core.application import DebugletApplication
from repro.core.executor import ExecutionRecord, issue_certificate
from repro.core.fleet import FleetScheduler
from repro.core.fleetmgr import ExecutorState, FleetManager
from repro.core.marketplace import ExecutorAgent, Initiator, SessionState
from repro.core.offchain import OffChainCodeStore
from repro.netsim.engine import Simulator
from repro.netsim.packet import Address, Protocol
from repro.sandbox.programs import echo_client, echo_server

#: Synthetic vantage ASNs start here (clear of the chain scenarios' 1..N).
BASE_ASN = 100

#: Churn timetable, as fractions of the launch ramp: crashes land first
#: (so eviction + re-registration both fit inside the ramp), heartbeat
#: loss second, graceful drains last (so drained pairs have sold work to
#: finish). Late registrations are spread evenly across the whole ramp.
CRASH_AT_FRACTION = 0.15
LOST_AT_FRACTION = 0.35
DRAIN_AT_FRACTION = 0.55


@dataclass
class LoadgenConfig:
    """Knobs of one load-generator run."""

    sessions: int = 12_000
    executors: int = 64  # paired into vantage pairs; must be even
    initiators: int = 64
    ledger_mode: str = "batched"  # "serial" | "batched"
    block_window: float = 4.0  # finality window batched blocks seal on
    num_shards: int = 16
    seed: int = 0
    ramp: float = 30.0  # seconds of simulated launch ramp
    duration: float = 0.5  # measurement duration (= slot width)
    exec_time: float = 0.05  # synthetic execution run time
    finality_latency: float = 0.4
    slot_price: int = 50_000_000
    deadline_margin: float = 120.0
    verify_chain: bool = False  # run full chain verification after drain
    #: Fraction of completed sessions spot-checked by the lightweight
    #: loadgen auditor (window containment + batched certificate
    #: signature verification). 0 disables auditing entirely.
    audit_rate: float = 0.0
    #: Fleet churn (DESIGN.md §14): a FleetManager owns every pair's
    #: lifecycle and sessions pick a vantage pair at fire time from the
    #: currently-sellable set. The ``*_pairs`` knobs below say how many
    #: vantage pairs play each churn role; at least one pair must stay
    #: stable. Roles are assigned by a seeded permutation, so the same
    #: config + seed always churns the same pairs.
    churn: bool = False
    heartbeat_interval: float = 2.0
    suspect_beats: int = 2
    evict_beats: int = 4
    late_pairs: int = 0  # register mid-ramp instead of at build time
    drain_pairs: int = 0  # gracefully drained mid-ramp, retire when idle
    crash_pairs: int = 0  # crash, get evicted, restart, re-register
    lost_pairs: int = 0  # healthy executor, severed heartbeat channel
    #: Slot over-provisioning: each executor offers ``slot_factor`` times
    #: its fair share of slots, so surviving pairs can absorb the load of
    #: drained/evicted ones. Escrow moves only on purchase, so unsold
    #: headroom costs nothing.
    slot_factor: float = 1.0

    def validate(self) -> None:
        if self.sessions < 1:
            raise ConfigurationError("sessions must be >= 1")
        if self.executors < 2 or self.executors % 2:
            raise ConfigurationError("executors must be an even count >= 2")
        if self.initiators < 1:
            raise ConfigurationError("initiators must be >= 1")
        if self.ledger_mode not in ("serial", "batched"):
            raise ConfigurationError("ledger_mode must be 'serial' or 'batched'")
        if self.duration <= 0 or self.exec_time < 0 or self.ramp < 0:
            raise ConfigurationError("durations must be positive")
        if not 0.0 <= self.audit_rate <= 1.0:
            raise ConfigurationError("audit_rate must be in [0, 1]")
        if self.slot_factor < 1.0:
            raise ConfigurationError("slot_factor must be >= 1")
        role_counts = (
            self.late_pairs,
            self.drain_pairs,
            self.crash_pairs,
            self.lost_pairs,
        )
        if min(role_counts) < 0:
            raise ConfigurationError("churn pair counts must be >= 0")
        if sum(role_counts) and not self.churn:
            raise ConfigurationError("churn pair counts require churn=True")
        if self.churn:
            if self.heartbeat_interval <= 0:
                raise ConfigurationError("heartbeat_interval must be positive")
            if sum(role_counts) > self.pairs - 1:
                raise ConfigurationError(
                    "churn must leave at least one stable vantage pair"
                )

    @property
    def pairs(self) -> int:
        return self.executors // 2

    @property
    def slots_per_side(self) -> int:
        """Slots each executor offers: its fair share times the churn
        over-provisioning factor."""
        return math.ceil(self.sessions / self.pairs * self.slot_factor)

    @property
    def windows_open(self) -> float:
        """When execution windows begin: after the ramp plus enough slack
        for the purchase transactions' finality."""
        return self.ramp + 4 * self.finality_latency + 1.0


class SyntheticExecutor:
    """A data-plane stand-in: admits instantly, 'runs' on a timer.

    Duck-types the slice of :class:`~repro.core.executor.Executor` that
    :class:`~repro.core.marketplace.ExecutorAgent` and the chaos injector
    touch — ``admit``/``submit``, ``crash``/``restart``/``cancel_pending``
    — and certifies results with a real Ed25519 signature, so the
    published payloads are structurally identical to the full stack's.
    """

    def __init__(
        self,
        simulator: Simulator,
        asn: int,
        interface: int,
        *,
        exec_time: float = 0.05,
        keypair: KeyPair | None = None,
    ) -> None:
        self.simulator = simulator
        self.asn = asn
        self.interface = interface
        self.exec_time = exec_time
        self.keypair = keypair or KeyPair.deterministic(
            f"synthetic-executor-{asn}-{interface}"
        )
        self.crashed = False
        self.crash_count = 0
        self.executions: list[ExecutionRecord] = []
        self._pending: list = []  # (handle, record) not yet completed

    def admit(self, application: DebugletApplication) -> None:
        """Synthetic admission: everything well-formed is admissible."""

    def submit(
        self,
        application: DebugletApplication,
        *,
        start_at: float | None = None,
        on_complete=None,
    ) -> ExecutionRecord:
        if self.crashed:
            raise ConfigurationError(f"executor {self.asn}:{self.interface} is down")
        record = ExecutionRecord(application=application)
        self.executions.append(record)
        start = max(self.simulator.now, start_at or 0.0)
        handle = self.simulator.schedule_at(
            start + self.exec_time, self._complete, record, start, on_complete
        )
        self._pending.append((handle, record))
        return record

    def _complete(self, record: ExecutionRecord, started_at: float, on_complete) -> None:
        self._pending = [(h, r) for h, r in self._pending if r is not record]
        if self.crashed:  # crashed mid-run: dies silently, never certifies
            record.status = "failed: executor crashed"
            return
        record.status = "completed"
        record.started_at = started_at
        record.finished_at = self.simulator.now
        record.result = record.finished_at.hex().encode("ascii")
        record.certificate = issue_certificate(
            self.keypair, self.asn, self.interface, record
        )
        if on_complete is not None:
            on_complete(record)

    # Failure model (chaos compatibility).

    def crash(self, reason: str = "executor crashed") -> None:
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        for handle, record in self._pending:
            handle.cancel()
            record.status = f"failed: {reason}"
        self._pending.clear()

    def restart(self) -> None:
        self.crashed = False

    def cancel_pending(self, reason: str = "slot expired") -> None:
        for handle, record in self._pending:
            handle.cancel()
            record.status = f"failed: {reason}"
        self._pending.clear()


class SyntheticExecutorAgent(ExecutorAgent):
    """An :class:`ExecutorAgent` that skips wire decode and VM admission.

    Only ``_on_application`` is overridden: instead of fetching and
    reassembling the purchased bytecode, the agent schedules its synthetic
    executor with a fixed application template. Publication — gates,
    LedgerUnavailable retries with backoff, failure accounting — is
    inherited unchanged, which is what keeps the chaos fault classes
    meaningful against loadgen fleets.
    """

    def __init__(self, *args, template: DebugletApplication, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.template = template

    def _on_application(self, event: Event) -> None:
        application_id = event.get("application_id")
        self.handled_applications.append(application_id)
        obj = self.ledger.objects.get(ObjectId.from_hex(application_id))
        if obj.kind != APPLICATION_KIND:
            return
        window_start = obj.data["window"]["start"]
        start_at = max(window_start, self.executor.simulator.now)

        def on_complete(record: ExecutionRecord) -> None:
            self._publish_result(application_id, record)

        try:
            self.executor.submit(
                self.template, start_at=start_at, on_complete=on_complete
            )
        except DebugletError as exc:
            self.rejected_applications.append((application_id, str(exc)))


class LoadgenAuditor:
    """Lightweight audit path for synthetic fleets (DESIGN.md §13).

    Synthetic executors have no interaction logs, so replay audits do
    not apply; what *can* be checked at fleet scale, cheaply, is checked
    on every sampled session: certificate timestamps inside the
    purchased window, plus certificate signatures — collected per session
    and checked in one :func:`ed25519_batch_verify` call at drain (the
    same per-signature cost, paid once the fleet has finished). This is
    the overhead the <10% sessions/sec budget in EXPERIMENTS.md is
    measured against.
    """

    def __init__(self, *, audit_rate: float, window_slack: float, seed: int) -> None:
        self.audit_rate = audit_rate
        self.window_slack = window_slack
        self._rng = derive_rng(seed, "loadgen-auditor")
        self.sessions_observed = 0
        self.sessions_sampled = 0
        self.certificates_checked = 0
        self.window_violations: list[str] = []
        self._batch: list[tuple[bytes, bytes, bytes]] = []
        self.signature_failures: list[int] = []

    def on_session_complete(self, session) -> None:
        self.sessions_observed += 1
        if float(self._rng.random()) >= self.audit_rate:
            return
        self.sessions_sampled += 1
        for role in sorted(session.outcomes):
            outcome = session.outcomes[role]
            certificate = outcome.certificate
            if outcome.status != "completed" or certificate is None:
                continue
            self.certificates_checked += 1
            if not certificate.within_window(
                session.window_start, session.window_end, self.window_slack
            ):
                self.window_violations.append(outcome.application_id)
            self._batch.append(
                (
                    certificate.executor_public_key,
                    certificate.signing_payload(),
                    certificate.signature,
                )
            )

    def finalize(self) -> None:
        """Verify every collected certificate signature in one batch."""
        if self._batch:
            self.signature_failures = ed25519_batch_verify(self._batch)

    def report(self) -> dict:
        return {
            "sessions_observed": self.sessions_observed,
            "sessions_sampled": self.sessions_sampled,
            "certificates_checked": self.certificates_checked,
            "window_violations": len(self.window_violations),
            "signature_failures": len(self.signature_failures),
        }


@dataclass
class LoadgenFleet:
    """A built (but not yet run) load-generator testbed."""

    config: LoadgenConfig
    simulator: Simulator
    ledger: Ledger
    market: DebugletMarket
    code_store: OffChainCodeStore
    executors: list[SyntheticExecutor]
    agents: list[SyntheticExecutorAgent]
    initiators: list[Initiator]
    scheduler: FleetScheduler
    auditor: LoadgenAuditor | None = None
    client_app: DebugletApplication = field(repr=False, default=None)
    server_app: DebugletApplication = field(repr=False, default=None)
    #: Churn mode only: lifecycle owner, fault source, role assignment.
    manager: FleetManager | None = None
    chaos: ChaosInjector | None = None
    churn_roles: dict | None = None
    #: (session index, pair, client state, server state) at fire time.
    assignments: list[tuple[int, int, str, str]] = field(default_factory=list)
    #: Crash pairs whose scheduled re-registration found the member not
    #: evicted yet (timing knobs too tight); they stay out of the fleet.
    skipped_reregistrations: list[tuple[int, int]] = field(default_factory=list)

    def pair_vantages(self, pair: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(client, server) vantages of pair ``pair``."""
        return (BASE_ASN + 2 * pair, 1), (BASE_ASN + 2 * pair + 1, 1)

    def sellable_pairs(self) -> list[int]:
        """Pairs whose BOTH sides the manager would sell right now."""
        if self.manager is None:
            return list(range(self.config.pairs))
        return [
            pair
            for pair in range(self.config.pairs)
            if all(self.manager.is_sellable(v) for v in self.pair_vantages(pair))
        ]


def _assign_churn_roles(config: LoadgenConfig) -> dict[str, list[int]]:
    """Deterministically deal churn roles to vantage pairs.

    One seeded permutation, sliced in role order — roles are disjoint by
    construction and stable across runs of the same (seed, config).
    """
    rng = derive_rng(config.seed, "churn-roles")
    order = [int(pair) for pair in rng.permutation(config.pairs)]
    roles: dict[str, list[int]] = {}
    cut = 0
    for name, count in (
        ("late", config.late_pairs),
        ("drain", config.drain_pairs),
        ("crash", config.crash_pairs),
        ("lost", config.lost_pairs),
    ):
        roles[name] = sorted(order[cut : cut + count])
        cut += count
    roles["stable"] = sorted(order[cut:])
    return roles


def _slot_grid(config: LoadgenConfig, *, first: int = 0) -> list[ExecutionSlot]:
    """One executor's back-to-back slot inventory, starting at grid
    index ``first`` (0 = the instant the windows open)."""
    return [
        ExecutionSlot(
            cores=2,
            memory_mb=512,
            bandwidth_mbps=100,
            start=config.windows_open + slot * config.duration,
            end=config.windows_open + (slot + 1) * config.duration,
            price=config.slot_price,
        )
        for slot in range(first, first + config.slots_per_side)
    ]


def build(config: LoadgenConfig, *, obs=None) -> LoadgenFleet:
    """Wire the full loadgen stack: ledger, market, fleet, launches."""
    config.validate()
    simulator = Simulator()
    if obs is not None:
        simulator.attach_observability(obs)
    ledger = Ledger(
        clock=lambda: simulator.now,
        scheduler=lambda delay, fn: simulator.schedule(delay, fn),
        finality_latency=config.finality_latency,
        num_shards=config.num_shards,
        block_window=(
            config.block_window if config.ledger_mode == "batched" else None
        ),
    )
    if obs is not None:
        ledger.obs = obs
    market = DebugletMarket()
    ledger.register_contract(market)
    code_store = OffChainCodeStore()

    # One pair of application templates shared by every session: assembly
    # and manifest construction happen once, and the off-chain store
    # deduplicates the wire blobs, so purchases only ship the two hashes.
    client_stock = echo_client(
        Protocol.UDP, Address(BASE_ASN + 1, "exec1"), count=1, interval_us=10_000
    )
    server_stock = echo_server(Protocol.UDP, max_echoes=1)
    client_app = DebugletApplication.from_stock("loadgen-client", client_stock)
    server_app = DebugletApplication.from_stock(
        "loadgen-server", server_stock, listen_port=7
    )

    # Executors: pair 2k/2k+1 serve the client/server side of vantage
    # pair k. Every pair gets enough back-to-back slots for its share of
    # the session load, starting when the windows open.
    executors: list[SyntheticExecutor] = []
    agents: list[SyntheticExecutorAgent] = []
    for index in range(config.executors):
        executor = SyntheticExecutor(
            simulator,
            BASE_ASN + index,
            1,
            exec_time=config.exec_time,
            keypair=KeyPair.deterministic(f"loadgen-executor-{config.seed}-{index}"),
        )
        template = client_app if index % 2 == 0 else server_app
        agent = SyntheticExecutorAgent(
            executor,
            ledger,
            code_store=code_store,
            seed=config.seed,
            template=template,
        )
        executors.append(executor)
        agents.append(agent)

    manager: FleetManager | None = None
    chaos: ChaosInjector | None = None
    roles: dict[str, list[int]] | None = None
    if not config.churn:
        for agent in agents:
            agent.register()
            agent.offer_slots(_slot_grid(config))
    else:
        # The fleet manager owns every pair's lifecycle; late pairs stay
        # unregistered until their mid-ramp enrollment event fires.
        manager = FleetManager(
            simulator,
            market=market,
            heartbeat_interval=config.heartbeat_interval,
            suspect_beats=config.suspect_beats,
            evict_beats=config.evict_beats,
        )
        roles = _assign_churn_roles(config)
        late = set(roles["late"])
        for index, agent in enumerate(agents):
            if index // 2 in late:
                continue
            manager.register(agent)
            agent.offer_slots(_slot_grid(config))
        if roles["crash"] or roles["lost"]:
            chaos = ChaosInjector(simulator, ledger, seed=config.seed)

    # Initiator wallets, funded for their share of purchases plus gas.
    per_initiator = math.ceil(config.sessions / config.initiators)
    funding = sui_to_mist(5) + per_initiator * (2 * config.slot_price + sui_to_mist(1))
    initiators: list[Initiator] = []
    for index in range(config.initiators):
        keypair = KeyPair.deterministic(f"loadgen-initiator-{config.seed}-{index}")
        ledger.create_account(keypair, balance=funding, label=f"initiator-{index}")
        initiators.append(
            Initiator(
                ledger,
                Wallet(ledger, keypair),
                simulator=simulator,
                seed=config.seed + index,
            )
        )

    auditor = None
    if config.audit_rate > 0:
        auditor = LoadgenAuditor(
            audit_rate=config.audit_rate,
            window_slack=config.finality_latency + 1.0,
            seed=config.seed,
        )
    scheduler = FleetScheduler(
        simulator,
        ledger=ledger,
        session_timeout=config.windows_open
        + config.slots_per_side * config.duration
        + config.deadline_margin,
        stall_grace=30.0,
        wheel_resolution=5.0,
        auditor=auditor,
    )

    fleet = LoadgenFleet(
        config=config,
        simulator=simulator,
        ledger=ledger,
        market=market,
        code_store=code_store,
        executors=executors,
        agents=agents,
        initiators=initiators,
        scheduler=scheduler,
        auditor=auditor,
        client_app=client_app,
        server_app=server_app,
        manager=manager,
        chaos=chaos,
        churn_roles=roles,
    )
    if config.churn:
        _schedule_churn(fleet)
    _schedule_launches(fleet)
    return fleet


def _schedule_churn(fleet: LoadgenFleet) -> None:
    """Put the churn timetable on the simulator clock.

    Everything is a plain scheduled event — no RNG beyond the role deal —
    so the churn interleaving replays bit-for-bit under the same seed.
    """
    config = fleet.config
    manager = fleet.manager
    roles = fleet.churn_roles
    hb = config.heartbeat_interval

    def enroll(pair: int) -> None:
        for index in (2 * pair, 2 * pair + 1):
            agent = fleet.agents[index]
            manager.register(agent)
            agent.offer_slots(_slot_grid(config))

    for i, pair in enumerate(roles["late"]):
        at = config.ramp * (i + 1) / (len(roles["late"]) + 1)
        fleet.simulator.schedule_at(at, enroll, pair)

    for i, pair in enumerate(roles["drain"]):
        at = DRAIN_AT_FRACTION * config.ramp + i * hb
        for vantage in fleet.pair_vantages(pair):
            fleet.simulator.schedule_at(at, manager.drain, vantage)

    for i, pair in enumerate(roles["crash"]):
        # Outage long enough to guarantee eviction (the sweep evicts by
        # crash + (evict_beats+1)*hb) but short enough that the restart
        # and re-registration land inside the ramp.
        crash_at = CRASH_AT_FRACTION * config.ramp + i * hb
        restart_at = crash_at + (config.evict_beats + 1.5) * hb
        for index in (2 * pair, 2 * pair + 1):
            fleet.chaos.crash_executor(
                fleet.executors[index], at=crash_at, restart_at=restart_at
            )
        fleet.simulator.schedule_at(
            restart_at + 0.5 * hb, _reregister_pair, fleet, pair
        )

    for i, pair in enumerate(roles["lost"]):
        at = LOST_AT_FRACTION * config.ramp + i * hb
        for vantage in fleet.pair_vantages(pair):
            fleet.chaos.lose_heartbeats(manager.get(vantage), start=at)


def _reregister_pair(fleet: LoadgenFleet, pair: int) -> None:
    """Bring a crashed-and-restarted pair back: re-register with the
    manager and offer a fresh slot inventory covering windows the
    executor can still honor."""
    config = fleet.config
    manager = fleet.manager
    slack = 4 * config.finality_latency + 1.0
    first = max(
        0,
        math.ceil(
            (fleet.simulator.now + slack - config.windows_open) / config.duration
        ),
    )
    for index in (2 * pair, 2 * pair + 1):
        vantage = (BASE_ASN + index, 1)
        member = manager.members.get(vantage)
        if (
            member is None
            or member.state is not ExecutorState.EVICTED
            or getattr(member.executor, "crashed", False)
        ):
            fleet.skipped_reregistrations.append(vantage)
            continue
        manager.reregister(vantage)
        fleet.agents[index].offer_slots(_slot_grid(config, first=first))


def _schedule_launches(fleet: LoadgenFleet) -> None:
    config = fleet.config

    def request(initiator: Initiator, pair: int, done):
        client_vantage, server_vantage = fleet.pair_vantages(pair)
        return initiator.request_measurement(
            fleet.client_app,
            fleet.server_app,
            client_vantage,
            server_vantage,
            duration=config.duration,
            earliest=config.windows_open,
            code_store=fleet.code_store,
            deadline_margin=config.deadline_margin,
            on_complete=done,
        )

    def make_static_start(initiator: Initiator, pair: int):
        def start(done):
            return request(initiator, pair, done)

        return start

    def make_churn_start(initiator: Initiator, index: int):
        # Churn mode defers the vantage choice to FIRE time: the session
        # goes to a pair whose both sides the fleet manager is currently
        # willing to sell — never to a draining, suspected, or evicted
        # member. The decision (and both members' states) is recorded so
        # the report can prove the invariant held.
        def start(done):
            manager = fleet.manager
            available = fleet.sellable_pairs()
            if not available:
                raise DebugletError("no sellable vantage pair in the fleet")
            pair = available[index % len(available)]
            client_vantage, server_vantage = fleet.pair_vantages(pair)
            fleet.assignments.append(
                (
                    index,
                    pair,
                    manager.state_of(client_vantage).value,
                    manager.state_of(server_vantage).value,
                )
            )
            return request(initiator, pair, done)

        return start

    for index in range(config.sessions):
        at = config.ramp * index / config.sessions
        initiator = fleet.initiators[index % len(fleet.initiators)]
        if config.churn:
            start = make_churn_start(initiator, index)
        else:
            start = make_static_start(initiator, index % config.pairs)
        fleet.scheduler.launch(at, start, label=f"session-{index}")


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        int(math.ceil(fraction * len(sorted_values))) - 1, len(sorted_values) - 1
    )
    return sorted_values[max(index, 0)]


def run(fleet: LoadgenFleet) -> dict:
    """Drain the fleet; returns the bench report.

    The ``deterministic`` sub-dict depends only on (config, seed) — it is
    what the CI smoke job compares across same-seed runs. Wall-clock
    throughput lives at the top level.
    """
    config = fleet.config
    started = time.perf_counter()
    completed = fleet.scheduler.run()
    if fleet.manager is not None:
        # Give the sweep a few more intervals to retire any member whose
        # drain finished with the last session, then silence the fleet
        # timers so the simulator can actually go idle.
        fleet.manager.run_until(
            fleet.simulator.now + 3 * fleet.manager.sweep_interval
        )
        fleet.manager.stop()
        fleet.simulator.run_until_idle()
    fleet.ledger.flush_block()  # seal the trailing partial block, if any
    if fleet.auditor is not None:
        fleet.auditor.finalize()
    wall_seconds = time.perf_counter() - started

    verify_seconds = None
    if config.verify_chain:
        verify_started = time.perf_counter()
        fleet.ledger.verify_chain()
        verify_seconds = time.perf_counter() - verify_started

    by_state: dict[str, int] = {}
    latencies: list[float] = []
    for session in completed:
        by_state[session.state.value] = by_state.get(session.state.value, 0) + 1
        terminal_at = session.state_history[-1][0]
        latencies.append(terminal_at - session.requested_at)
    latencies.sort()

    tx_count = len(fleet.ledger.transactions)
    deterministic = {
        "sessions": config.sessions,
        "completed": len(completed),
        "certified": by_state.get(SessionState.CERTIFIED.value, 0),
        "by_state": dict(sorted(by_state.items())),
        "launch_failures": len(fleet.scheduler.launch_failures),
        "peak_active_sessions": fleet.scheduler.peak_active,
        "sim_seconds": round(fleet.simulator.now, 6),
        "latency_p50_s": round(_percentile(latencies, 0.50), 6),
        "latency_p99_s": round(_percentile(latencies, 0.99), 6),
        "ledger_txs": tx_count,
        "checkpoints": len(fleet.ledger.checkpoints),
        "blocks_sealed": fleet.ledger.blocks_sealed,
        "state_digest": fleet.ledger.state_digest().hex(),
    }
    if fleet.auditor is not None:
        deterministic["audit"] = fleet.auditor.report()
    if fleet.manager is not None:
        manager = fleet.manager
        sellable = frozenset((ExecutorState.ACTIVE.value,))
        pair_sessions: dict[int, int] = {}
        assigned_unsellable = 0
        for _, pair, client_state, server_state in fleet.assignments:
            pair_sessions[pair] = pair_sessions.get(pair, 0) + 1
            if client_state not in sellable or server_state not in sellable:
                assigned_unsellable += 1
        deterministic["fleet"] = {
            "roles": fleet.churn_roles,
            "states": manager.counts(),
            "transitions": len(manager.lifecycle_log),
            "registrations": sum(
                member.registrations for member in manager.members.values()
            ),
            "heartbeats_seen": manager.heartbeats_seen,
            "heartbeats_missed": manager.heartbeats_missed,
            "assigned_while_unsellable": assigned_unsellable,
            "skipped_reregistrations": len(fleet.skipped_reregistrations),
            "sessions_per_pair": {
                str(pair): count for pair, count in sorted(pair_sessions.items())
            },
        }
    report = {
        "mode": config.ledger_mode,
        "seed": config.seed,
        "churn": config.churn,
        "audit_rate": config.audit_rate,
        "executors": config.executors,
        "initiators": config.initiators,
        "block_window": (
            config.block_window if config.ledger_mode == "batched" else None
        ),
        "num_shards": config.num_shards,
        "signature_backend": backend_name(),
        "wall_seconds": round(wall_seconds, 3),
        "sessions_per_sec": round(len(completed) / wall_seconds, 2)
        if wall_seconds > 0
        else 0.0,
        "ledger_txs_per_sec": round(tx_count / wall_seconds, 2)
        if wall_seconds > 0
        else 0.0,
        "deterministic": deterministic,
    }
    if verify_seconds is not None:
        report["verify_chain_seconds"] = round(verify_seconds, 3)
    return report


#: The names ``repro.workloads`` re-exports these under.
build_loadgen = build
run_loadgen = run
