"""Executor fleet management: lifecycle, admission scope, liveness (§VI).

The marketplace so far ran off a *static* executor population: agents were
registered at testbed build time and stayed registered forever. This
module adds the control-plane layer that makes the population dynamic —
the piece the paper's §VI (decentralized discovery, incremental
deployment) presumes and the ROADMAP names "executor fleet management"
(the "fleet" here is executor *membership*: not
:class:`~repro.core.probing.ExecutorFleet`, the marketplace-free vantage →
executor table of the data-plane probers, and not
:class:`~repro.core.fleet.FleetScheduler`, which multiplexes sessions):

- a **lifecycle** per executor — ``registered → active → draining →
  retired`` on the happy path, with sim-clock heartbeats, missed-heartbeat
  suspicion and eviction on the liveness path, and re-registration after a
  crash. Eviction is deliberately distinct from *slashing* (DESIGN.md
  §11): a silent executor is delisted and its unsold inventory withdrawn,
  but its stake is untouched — only the auditor's on-chain conviction
  burns stake. Liveness is not misbehavior.

- **capability-scoped admission** in the "Runners v1" allowlist posture
  (SNIPPETS.md): every fleet member carries a :class:`CapabilityRecord`
  (protocols, host-op allowlist, fuel/memory ceilings, contact-AS scope)
  and every program is checked against the *verifier-inferred* facts —
  :class:`~repro.sandbox.verifier.VerificationReport` capabilities, host
  ops, and worst-case fuel — at registration preflight, at purchase
  preflight, and again at submit time (the manager wraps
  ``executor.admit``). Every decision, admit or deny, lands in an
  auditable per-executor admission log.

- **liveness monitoring**: members heartbeat on the simulator clock;
  a manager sweep, once per heartbeat interval, marks members
  ``suspected`` after ``suspect_beats`` silent intervals and ``evicted``
  after ``evict_beats``. A crashed executor misses beats (its daemon
  died with it); a restarted one that beats again before eviction
  recovers to ``active`` without ceremony.
  The chaos layer injects pure heartbeat loss (healthy executor, silent
  control channel) via :meth:`~repro.chaos.ChaosInjector.lose_heartbeats`.

- **graceful drain**: :meth:`FleetManager.drain` withdraws unsold slots
  on-chain (stop selling) while in-flight and already-sold work keeps
  running; the sweep retires the member — and deregisters it on-chain via
  ``deregister_executor`` — only once the executor is idle and every
  application it handled is settled (result published, rejected, or
  refunded).

Everything is scheduled on the simulator clock with no RNG, so same-seed
runs produce byte-identical observability exports. Heartbeat and sweep
timers run until :meth:`FleetManager.stop` — call it (or use
:meth:`FleetManager.run_until`) before ``run_until_idle`` style draining.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import (
    ChainError,
    ConfigurationError,
    PolicyViolation,
)
from repro.contracts.debuglet_market import DebugletMarket
from repro.core.application import DebugletApplication
from repro.sandbox.hostops import HOST_OPS
from repro.sandbox.manifest import KNOWN_CAPABILITIES
from repro.sandbox.verifier import verify_module

#: Every host operation the executor runtime implements, in table order
#: (``repro.sandbox.hostops.HOST_OPS``). A capability record allowlists a
#: subset.
ALL_HOST_OPS = tuple(HOST_OPS)

#: The "Runners v1" safe default posture: observe and report, never
#: transmit. Registration under this allowlist admits passive telemetry
#: programs only; active probing requires the full allowlist.
READ_ONLY_HOST_OPS = tuple(
    name for name, row in HOST_OPS.items() if not row.transmits
)


class ExecutorState(enum.Enum):
    """Lifecycle states of a fleet member."""

    REGISTERED = "registered"  # admitted to the fleet; no heartbeat yet
    ACTIVE = "active"  # heartbeating; sellable
    SUSPECTED = "suspected"  # missed beats; not sellable, not yet evicted
    DRAINING = "draining"  # finishing in-flight work; not selling
    RETIRED = "retired"  # graceful exit; deregistered on-chain (terminal)
    EVICTED = "evicted"  # liveness eviction; may re-register


#: States a member never heartbeats out of by itself.
TERMINAL_STATES = frozenset({ExecutorState.RETIRED, ExecutorState.EVICTED})

#: States in which the manager will hand the member new sessions.
SELLABLE_STATES = frozenset({ExecutorState.ACTIVE})


@dataclass(frozen=True)
class CapabilityRecord:
    """What one fleet member is allowed to run (allowlist posture).

    Checked against verifier-inferred program facts, not against what a
    manifest merely *claims*: a program whose bytecode can reach
    ``net_send`` is refused by a read-only record even if its manifest
    understates its needs.
    """

    protocols: tuple[str, ...] = KNOWN_CAPABILITIES
    host_ops: tuple[str, ...] = ALL_HOST_OPS
    max_fuel: int = 100_000_000
    max_memory_bytes: int = 16 * 1024 * 1024
    #: ASes this member may be asked to contact; empty = unrestricted.
    contact_asns: tuple[int, ...] = ()
    #: admit native (non-sandboxed, hence unverifiable) programs?
    allow_native: bool = False

    @classmethod
    def from_policy(cls, policy, **overrides) -> "CapabilityRecord":
        """Derive a record from an :class:`ExecutorPolicy`'s ceilings."""
        defaults = dict(
            protocols=tuple(
                getattr(policy, "offered_capabilities", KNOWN_CAPABILITIES)
            ),
            max_fuel=getattr(policy, "max_instructions", 100_000_000),
            max_memory_bytes=getattr(
                policy, "max_memory_bytes", 16 * 1024 * 1024
            ),
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def read_only(cls, **overrides) -> "CapabilityRecord":
        """The Runners-v1 safe default: tight, passive allowlist."""
        defaults = dict(host_ops=READ_ONLY_HOST_OPS)
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True)
class AdmissionDecision:
    """One auditable entry of a member's admission log."""

    time: float
    subject: str  # program name, or "registration"
    source: str  # "registration" | "purchase" | "submit"
    admitted: bool
    reason: str = ""


@dataclass
class FleetMember:
    """One executor's fleet-side record."""

    vantage: tuple[int, int]
    agent: object  # ExecutorAgent or a duck-typed stand-in
    capabilities: CapabilityRecord
    state: ExecutorState = ExecutorState.REGISTERED
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    beats: int = 0
    missed_evictions: int = 0
    registrations: int = 1
    admission_log: list[AdmissionDecision] = field(default_factory=list)
    history: list[tuple[float, str, str, str]] = field(default_factory=list)
    #: chaos hook: when set and truthy for ``now``, the beat is suppressed.
    heartbeat_gate: Callable[[float], bool] | None = None
    _hb_handle: object = field(default=None, repr=False)
    _drain_span: object = field(default=None, repr=False)
    _guard_installed: bool = field(default=False, repr=False)

    @property
    def executor(self):
        return self.agent.executor

    @property
    def sellable(self) -> bool:
        return self.state in SELLABLE_STATES


def executor_in_flight(executor) -> int:
    """How many executions the executor still owes (scheduled, queued,
    running). Works for both :class:`~repro.core.executor.Executor` and
    the loadgen's synthetic stand-in."""
    count = 0
    for attr in ("_pending_starts", "_waiting", "_live", "_pending"):
        value = getattr(executor, attr, None)
        if value:
            count += len(value)
    return count


class FleetManager:
    """Registration, liveness, drain, and admission for an executor fleet.

    One manager per marketplace. ``market`` (the
    :class:`~repro.contracts.debuglet_market.DebugletMarket` instance) is
    optional but enables settled-work checks during drain and on-chain
    deregistration at retire time.
    """

    def __init__(
        self,
        simulator,
        *,
        market=None,
        heartbeat_interval: float = 5.0,
        suspect_beats: int = 2,
        evict_beats: int = 4,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if not 1 <= suspect_beats < evict_beats:
            raise ConfigurationError(
                "need 1 <= suspect_beats < evict_beats"
            )
        self.simulator = simulator
        self.market = market
        self.heartbeat_interval = heartbeat_interval
        self.suspect_beats = suspect_beats
        self.evict_beats = evict_beats
        self.members: dict[tuple[int, int], FleetMember] = {}
        #: every transition, fleet-wide: (time, vantage, from, to, reason)
        self.lifecycle_log: list[tuple[float, tuple[int, int], str, str, str]] = []
        self.heartbeats_seen = 0
        self.heartbeats_missed = 0
        self._sweep_handle = None
        self._stopped = False

    # ------------------------------------------------------------- obs

    @property
    def _obs(self):
        return getattr(self.simulator, "obs", None)

    def _emit_gauges(self) -> None:
        obs = self._obs
        if obs is None:
            return
        counts: dict[str, int] = {state.value: 0 for state in ExecutorState}
        for member in self.members.values():
            counts[member.state.value] += 1
        for state, count in counts.items():
            obs.metrics.gauge("fleet_members", state=state).set(count)

    def _transition(
        self, member: FleetMember, state: ExecutorState, reason: str = ""
    ) -> None:
        previous = member.state
        member.state = state
        now = self.simulator.now
        member.history.append((now, previous.value, state.value, reason))
        self.lifecycle_log.append(
            (now, member.vantage, previous.value, state.value, reason)
        )
        obs = self._obs
        if obs is not None:
            obs.metrics.counter(
                "fleet_lifecycle_transitions_total",
                from_state=previous.value,
                to_state=state.value,
            ).inc()
            obs.tracer.event(
                "fleetmgr.transition",
                component="fleetmgr",
                vantage=f"{member.vantage[0]}:{member.vantage[1]}",
                from_state=previous.value,
                to_state=state.value,
                reason=reason,
            )
            self._emit_gauges()

    # ------------------------------------------------------ registration

    def register(
        self,
        agent,
        *,
        capabilities: CapabilityRecord | None = None,
        stake: int = 0,
    ) -> FleetMember:
        """Admit ``agent`` to the fleet and start its lifecycle.

        Registers the executor on-chain (with ``stake`` attached) unless
        the agent already holds a live event subscription, installs the
        capability admission guard around ``executor.admit``, records the
        registration decision, and arms the heartbeat timer. The first
        heartbeat is sent immediately (daemons beat as part of
        registering), so a healthy member is ``active`` on return.
        """
        vantage = (agent.asn, agent.interface)
        existing = self.members.get(vantage)
        if existing is not None and existing.state not in TERMINAL_STATES:
            raise ConfigurationError(
                f"executor {vantage[0]}:{vantage[1]} is already a fleet "
                f"member in state {existing.state.value}"
            )
        record = capabilities
        if record is None:
            policy = getattr(agent.executor, "policy", None)
            record = (
                CapabilityRecord.from_policy(policy)
                if policy is not None
                else CapabilityRecord()
            )
        self._validate_record(agent, record)
        now = self.simulator.now
        if existing is not None:
            member = existing
            member.capabilities = record
            member.registrations += 1
            member.registered_at = now
            member.last_heartbeat = now
            # member.heartbeat_gate survives re-registration: a severed
            # control channel does not heal because the daemon restarted.
            self._transition(member, ExecutorState.REGISTERED, "re-registration")
        else:
            member = FleetMember(
                vantage=vantage,
                agent=agent,
                capabilities=record,
                registered_at=now,
                last_heartbeat=now,
            )
            self.members[vantage] = member
            self.lifecycle_log.append(
                (now, vantage, "-", ExecutorState.REGISTERED.value, "registration")
            )
            obs = self._obs
            if obs is not None:
                obs.tracer.event(
                    "fleetmgr.transition",
                    component="fleetmgr",
                    vantage=f"{vantage[0]}:{vantage[1]}",
                    from_state="-",
                    to_state=ExecutorState.REGISTERED.value,
                    reason="registration",
                )
                self._emit_gauges()
        if getattr(agent, "_subscription", None) is None:
            agent.register(stake=stake)
        self._install_guard(member)
        self._admit_log(
            member, "registration", "registration", True,
            f"capability record accepted ({len(record.host_ops)} host ops, "
            f"protocols: {', '.join(record.protocols) or 'none'})",
        )
        self._arm_heartbeat(member)
        self._beat(member)  # registration carries the first heartbeat
        if self._sweep_handle is None and not self._stopped:
            self._sweep_handle = self.simulator.schedule(
                self.heartbeat_interval, self._sweep
            )
        return member

    def reregister(self, vantage: tuple[int, int]) -> FleetMember:
        """Bring an evicted or retired member back into the fleet, under
        its capability record and with no stake attached.

        The executor must be up (a crashed process cannot register).
        """
        member = self._member(vantage)
        if member.state not in TERMINAL_STATES:
            raise ConfigurationError(
                f"member {vantage[0]}:{vantage[1]} is {member.state.value}; "
                "only evicted or retired members re-register"
            )
        if getattr(member.executor, "crashed", False):
            raise ConfigurationError(
                f"executor {vantage[0]}:{vantage[1]} is down; restart it "
                "before re-registering"
            )
        return self.register(member.agent, capabilities=member.capabilities)

    def _validate_record(self, agent, record: CapabilityRecord) -> None:
        """A record may not promise more than the executor policy offers."""
        policy = getattr(agent.executor, "policy", None)
        offered = tuple(
            getattr(policy, "offered_capabilities", KNOWN_CAPABILITIES)
        )
        excess = set(record.protocols) - set(offered)
        if excess:
            raise ConfigurationError(
                f"capability record offers protocols the executor policy "
                f"does not: {sorted(excess)}"
            )
        unknown = set(record.host_ops) - set(ALL_HOST_OPS)
        if unknown:
            raise ConfigurationError(
                f"capability record allowlists unknown host ops: "
                f"{sorted(unknown)}"
            )

    def _member(self, vantage: tuple[int, int]) -> FleetMember:
        member = self.members.get(vantage)
        if member is None:
            raise ConfigurationError(
                f"executor {vantage[0]}:{vantage[1]} is not a fleet member"
            )
        return member

    # -------------------------------------------------------- heartbeats

    def _arm_heartbeat(self, member: FleetMember) -> None:
        if member._hb_handle is not None:
            member._hb_handle.cancel()
        member._hb_handle = self.simulator.schedule(
            self.heartbeat_interval, self._heartbeat, member
        )

    def _heartbeat(self, member: FleetMember) -> None:
        member._hb_handle = None
        if self._stopped or member.state in TERMINAL_STATES:
            return  # timer dies; re-registration re-arms it
        member._hb_handle = self.simulator.schedule(
            self.heartbeat_interval, self._heartbeat, member
        )
        if getattr(member.executor, "crashed", False):
            self._miss(member, "crashed")
            return
        gate = member.heartbeat_gate
        if gate is not None and gate(self.simulator.now):
            self._miss(member, "heartbeat lost")
            return
        self._beat(member)

    def _beat(self, member: FleetMember) -> None:
        member.last_heartbeat = self.simulator.now
        member.beats += 1
        self.heartbeats_seen += 1
        obs = self._obs
        if obs is not None:
            obs.metrics.counter("fleet_heartbeats_total", status="ok").inc()
        if member.state is ExecutorState.REGISTERED:
            self._transition(member, ExecutorState.ACTIVE, "first heartbeat")
        elif member.state is ExecutorState.SUSPECTED:
            self._transition(member, ExecutorState.ACTIVE, "heartbeat resumed")

    def _miss(self, member: FleetMember, why: str) -> None:
        self.heartbeats_missed += 1
        obs = self._obs
        if obs is not None:
            obs.metrics.counter(
                "fleet_heartbeats_total", status="missed"
            ).inc()
        del why  # recorded at suspicion/eviction time, not per miss

    # ------------------------------------------------------------ sweeps

    def _sweep(self) -> None:
        self._sweep_handle = None
        if self._stopped:
            return
        now = self.simulator.now
        for vantage in sorted(self.members):
            member = self.members[vantage]
            if member.state in TERMINAL_STATES:
                continue
            silent = now - member.last_heartbeat
            if silent >= self.evict_beats * self.heartbeat_interval:
                self._evict(
                    member,
                    reason=f"missed heartbeats for {silent:.1f}s "
                    f"(eviction threshold "
                    f"{self.evict_beats * self.heartbeat_interval:.1f}s)",
                )
                continue
            if silent >= self.suspect_beats * self.heartbeat_interval:
                if member.state in (
                    ExecutorState.REGISTERED,
                    ExecutorState.ACTIVE,
                ):
                    self._transition(
                        member,
                        ExecutorState.SUSPECTED,
                        f"no heartbeat for {silent:.1f}s",
                    )
            if member.state is ExecutorState.DRAINING and self._drained(member):
                self._retire(member)
        if any(
            member.state not in TERMINAL_STATES
            for member in self.members.values()
        ):
            self._sweep_handle = self.simulator.schedule(
                self.heartbeat_interval, self._sweep
            )

    # --------------------------------------------------- drain and retire

    def drain(self, vantage: tuple[int, int]) -> FleetMember:
        """Stop selling new slots; finish in-flight work; retire when idle.

        Withdraws the member's unsold slot inventory on-chain immediately.
        Already-sold applications keep running and publishing; the sweep
        retires (and deregisters) the member once everything is settled.
        """
        member = self._member(vantage)
        if member.state in TERMINAL_STATES or member.state is ExecutorState.DRAINING:
            raise ConfigurationError(
                f"member {vantage[0]}:{vantage[1]} is {member.state.value}; "
                "cannot drain"
            )
        self._withdraw_inventory(member)
        obs = self._obs
        if obs is not None:
            member._drain_span = obs.tracer.begin(
                "fleetmgr.drain",
                component="fleetmgr",
                vantage=f"{vantage[0]}:{vantage[1]}",
            )
        self._transition(member, ExecutorState.DRAINING, "drain requested")
        return member

    def _withdraw_inventory(self, member: FleetMember) -> None:
        try:
            member.agent.withdraw_slots()
        except ChainError:
            pass  # not registered on-chain, or nothing left to withdraw

    def _drained(self, member: FleetMember) -> bool:
        if getattr(member.executor, "crashed", False):
            return False  # crashed mid-drain: the eviction path owns it
        if executor_in_flight(member.executor):
            return False
        return not self._unsettled(member)

    def _unsettled(self, member: FleetMember) -> list[str]:
        """Applications the member handled whose escrow is still open."""
        agent = member.agent
        handled = getattr(agent, "handled_applications", None)
        if not handled or self.market is None:
            return []
        results = self.market.state["results_map"]
        closed = {app_id for app_id, _ in agent.rejected_applications}
        closed.update(app_id for app_id, _ in agent.failed_publications)
        closed.update(agent.dropped_publications)
        return [
            app_id
            for app_id in handled
            if app_id not in results and app_id not in closed
        ]

    def _retire(self, member: FleetMember) -> None:
        self._transition(member, ExecutorState.RETIRED, "drain complete")
        if member._hb_handle is not None:
            member._hb_handle.cancel()
            member._hb_handle = None
        self._deregister_on_chain(member)
        subscription = getattr(member.agent, "_subscription", None)
        if subscription is not None:
            member.agent.ledger.events.unsubscribe(subscription)
            member.agent._subscription = None
        obs = self._obs
        if obs is not None and member._drain_span is not None:
            obs.tracer.finish(member._drain_span, outcome="retired")
            member._drain_span = None

    def _deregister_on_chain(self, member: FleetMember) -> None:
        agent = member.agent
        wallet = getattr(agent, "wallet", None)
        if wallet is None:
            return
        asn, interface = member.vantage
        try:
            wallet.must_call(
                DebugletMarket.name, "deregister_executor", asn, interface
            )
        except ChainError:
            pass  # never registered, or already deregistered

    # ---------------------------------------------------------- eviction

    def evict(self, vantage: tuple[int, int], *, reason: str) -> FleetMember:
        """Operator-forced eviction (the sweep calls the internal path)."""
        member = self._member(vantage)
        if member.state in TERMINAL_STATES:
            raise ConfigurationError(
                f"member {vantage[0]}:{vantage[1]} is already "
                f"{member.state.value}"
            )
        self._evict(member, reason=reason)
        return member

    def _evict(self, member: FleetMember, *, reason: str) -> None:
        """Liveness eviction: delist, withdraw inventory, stop the timer.

        Deliberately does NOT touch stake or convictions — eviction
        punishes silence with lost sales, not lost collateral. Slashing
        remains the auditor's monopoly (DESIGN.md §11), so a flaky-but-
        honest executor can restart, re-register, and withdraw its stake.
        """
        member.missed_evictions += 1
        if member._hb_handle is not None:
            member._hb_handle.cancel()
            member._hb_handle = None
        self._withdraw_inventory(member)
        if member._drain_span is not None:
            obs = self._obs
            if obs is not None:
                obs.tracer.finish(member._drain_span, outcome="evicted")
            member._drain_span = None
        self._transition(member, ExecutorState.EVICTED, reason)

    # --------------------------------------------------------- admission

    def _install_guard(self, member: FleetMember) -> None:
        if member._guard_installed:
            return
        member._guard_installed = True
        executor = member.executor
        original = executor.admit

        def guarded_admit(application: DebugletApplication) -> None:
            self.check_program(member.vantage, application, source="submit")
            original(application)

        executor.admit = guarded_admit

    def check_program(
        self,
        vantage: tuple[int, int],
        application: DebugletApplication,
        *,
        source: str = "purchase",
    ) -> None:
        """Capability-scope check; raises :class:`PolicyViolation` on deny.

        The decision — either way — is appended to the member's admission
        log. Facts come from the verifier where possible (capabilities,
        host ops, worst-case fuel), from the manifest otherwise.
        """
        member = self._member(vantage)
        record = member.capabilities
        manifest = application.manifest
        reasons: list[str] = []
        claimed = set(manifest.capabilities) - set(record.protocols)
        if claimed:
            reasons.append(
                f"manifest protocols outside capability record: "
                f"{sorted(claimed)}"
            )
        if manifest.max_memory_bytes > record.max_memory_bytes:
            reasons.append(
                f"memory {manifest.max_memory_bytes} > record ceiling "
                f"{record.max_memory_bytes}"
            )
        if record.contact_asns:
            foreign = {
                contact.asn
                for contact in manifest.contacts
                if contact.asn not in record.contact_asns
            }
            if foreign:
                reasons.append(
                    f"contacts outside serviced ASes: {sorted(foreign)}"
                )
        module = application.module
        if module is None:
            if not record.allow_native:
                reasons.append(
                    "native program refused: nothing to verify against "
                    "the allowlist"
                )
        else:
            report = verify_module(module, manifest)
            if report.capabilities_derivable:
                inferred = set(report.capabilities) - set(record.protocols)
                if inferred:
                    reasons.append(
                        f"verifier-inferred protocols outside capability "
                        f"record: {sorted(inferred)}"
                    )
            rogue = set(report.host_ops) - set(record.host_ops)
            if rogue:
                reasons.append(
                    f"host ops outside allowlist: {sorted(rogue)}"
                )
            if report.fuel is None or not report.fuel.is_bounded:
                reasons.append("worst-case fuel not provably bounded")
            elif report.fuel.bound > record.max_fuel:
                reasons.append(
                    f"worst-case fuel {report.fuel.bound} > record ceiling "
                    f"{record.max_fuel}"
                )
        admitted = not reasons
        self._admit_log(
            member, application.name, source, admitted, "; ".join(reasons)
        )
        if not admitted:
            raise PolicyViolation(
                f"fleet admission denied for {application.name!r} at "
                f"{vantage[0]}:{vantage[1]}: " + "; ".join(reasons)
            )

    def preflight(
        self,
        vantage: tuple[int, int],
        application: DebugletApplication,
    ) -> bool:
        """Purchase-time check: is the member sellable and in scope?

        Returns False (after logging, where a member exists) rather than
        raising, so schedulers can fall through to the next candidate.
        """
        member = self.members.get(vantage)
        if member is None:
            return False
        if not member.sellable:
            self._admit_log(
                member,
                application.name,
                "purchase",
                False,
                f"member is {member.state.value}, not sellable",
            )
            return False
        try:
            self.check_program(vantage, application, source="purchase")
        except PolicyViolation:
            return False
        return True

    def _admit_log(
        self,
        member: FleetMember,
        subject: str,
        source: str,
        admitted: bool,
        reason: str,
    ) -> None:
        member.admission_log.append(
            AdmissionDecision(
                time=self.simulator.now,
                subject=subject,
                source=source,
                admitted=admitted,
                reason=reason,
            )
        )
        obs = self._obs
        if obs is not None:
            obs.metrics.counter(
                "fleet_admissions_total",
                verdict="admitted" if admitted else "denied",
                source=source,
            ).inc()
            if not admitted:
                obs.tracer.event(
                    "fleetmgr.admission_denied",
                    component="fleetmgr",
                    vantage=f"{member.vantage[0]}:{member.vantage[1]}",
                    subject=subject,
                    source=source,
                    reason=reason,
                )

    # ----------------------------------------------------------- queries

    def get(self, vantage: tuple[int, int]) -> FleetMember:
        return self._member(vantage)

    def state_of(self, vantage: tuple[int, int]) -> ExecutorState:
        return self._member(vantage).state

    def is_sellable(self, vantage: tuple[int, int]) -> bool:
        member = self.members.get(vantage)
        return member is not None and member.sellable

    def members_in(self, *states: ExecutorState) -> list[FleetMember]:
        wanted = set(states)
        return [
            self.members[v]
            for v in sorted(self.members)
            if self.members[v].state in wanted
        ]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for member in self.members.values():
            out[member.state.value] = out.get(member.state.value, 0) + 1
        return dict(sorted(out.items()))

    def admission_log_of(
        self, vantage: tuple[int, int]
    ) -> list[AdmissionDecision]:
        return list(self._member(vantage).admission_log)

    # --------------------------------------------------------- run/stop

    def run_until(self, t: float) -> None:
        """Pump the shared simulator until simulated time ``t``.

        Liveness timers keep the simulator permanently non-idle, so
        ``run_until_idle`` never returns while a manager is live; tests
        and demos advance bounded windows with this instead. A fence
        event at ``t`` keeps the last step from overshooting into events
        scheduled past the target.
        """
        fence = self.simulator.schedule_at(t, lambda: None)
        while self.simulator.now < t and self.simulator.step():
            pass
        fence.cancel()

    def stop(self) -> None:
        """Cancel every timer. After this the manager is inert (queries
        still work) and ``run_until_idle`` drains normally."""
        self._stopped = True
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None
        for member in self.members.values():
            if member._hb_handle is not None:
                member._hb_handle.cancel()
                member._hb_handle = None


__all__ = [
    "ALL_HOST_OPS",
    "READ_ONLY_HOST_OPS",
    "AdmissionDecision",
    "CapabilityRecord",
    "ExecutorState",
    "FleetManager",
    "FleetMember",
    "SELLABLE_STATES",
    "TERMINAL_STATES",
    "executor_in_flight",
]
