"""Control-plane fault injection with recorded ground truth.

The data-plane twin of this module is :mod:`repro.netsim.faults`, which
perturbs channels; :class:`ChaosInjector` instead perturbs the *actors*
of the marketplace protocol (§IV): executors crash and restart
mid-execution, executor agents drop or delay their result publications,
the ledger refuses transactions or finalizes them late, and advertised
slots are withdrawn before their windows open.

Design rules (mirroring :class:`~repro.netsim.faults.FaultInjector`):

* every injection is **scheduled on the simulator clock** — nothing
  happens at injection time unless it is due now, so the same script
  replayed against the same seed produces the same event interleaving;
* every injection returns a :class:`ChaosFault` recording its ground
  truth (kind, target, window, magnitude) for later scoring;
* every fault is **revocable** and revocation is idempotent: pending
  actions are cancelled, installed gates become inert, and a crash whose
  restart has not yet happened is restarted;
* chaos never forges ledger history: transaction failures raise
  :class:`~repro.common.errors.LedgerUnavailable` *before* the ledger
  mutates any state, so ``verify_chain()`` and ``replay()`` are
  oblivious to the fault.

The ``seed`` feeds a dedicated RNG stream used by :meth:`random_fault`,
so randomized chaos schedules are replayable bit-for-bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ChainError, LedgerUnavailable
from repro.common.rng import derive_rng


class ChaosKind(enum.Enum):
    EXECUTOR_CRASH = "executor-crash"
    PUBLICATION_DROP = "publication-drop"
    PUBLICATION_DELAY = "publication-delay"
    TX_FAILURE = "tx-failure"
    FINALITY_DELAY = "finality-delay"
    SLOT_EXPIRY = "slot-expiry"
    BYZANTINE = "byzantine"
    HEARTBEAT_LOSS = "heartbeat-loss"


#: Kinds :meth:`ChaosInjector.random_fault` draws from. BYZANTINE is
#: excluded: it is an *attack* needing a strategy, not an infra fault.
#: HEARTBEAT_LOSS is excluded because it targets a fleet *member*, not a
#: marketplace agent — and keeping the draw space fixed preserves seeded
#: chaos schedules.
_RANDOM_KINDS = (
    ChaosKind.EXECUTOR_CRASH,
    ChaosKind.PUBLICATION_DROP,
    ChaosKind.PUBLICATION_DELAY,
    ChaosKind.TX_FAILURE,
    ChaosKind.FINALITY_DELAY,
    ChaosKind.SLOT_EXPIRY,
)


@dataclass
class ChaosFault:
    """A fault that was injected, with enough detail to score recoveries."""

    kind: ChaosKind
    target: str
    start: float
    end: float
    magnitude: float = 0.0
    sender: str | None = None
    revoked: bool = False
    fired: bool = False
    _handles: list = field(default_factory=list, repr=False)
    _on_revoke: list[Callable[[], None]] = field(default_factory=list, repr=False)

    def active(self, now: float) -> bool:
        return not self.revoked and self.start <= now < self.end

    def revoke(self) -> None:
        """Undo the fault's effects. Idempotent (same contract as
        :meth:`repro.netsim.faults.InjectedFault.revoke`)."""
        if self.revoked:
            return
        self.revoked = True
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        for hook in self._on_revoke:
            hook()
        self._on_revoke.clear()


class ChaosInjector:
    """Injects control-plane faults into a marketplace testbed.

    All methods take simulated-time windows; the caller typically builds
    one injector per scenario and feeds it the testbed's simulator and
    ledger. ``revoke_all()`` restores every actor to health.
    """

    def __init__(self, simulator, ledger=None, *, seed: int = 0) -> None:
        self.simulator = simulator
        self.ledger = ledger
        self.rng = derive_rng(seed, "chaos")
        self.injected: list[ChaosFault] = []
        # Ledger-level faults share one installed gate each; the gate
        # consults these lists so revocation is just list state.
        self._tx_faults: list[ChaosFault] = []
        self._finality_faults: list[ChaosFault] = []
        self._gates_installed = False

    def _register(self, fault: ChaosFault) -> ChaosFault:
        self.injected.append(fault)
        obs = self.simulator.obs
        if obs is not None:
            corr = f"fault:{len(self.injected)}"
            fault._corr = corr
            obs.metrics.counter(
                "chaos_faults_injected_total", kind=fault.kind.value
            ).inc()
            obs.tracer.event(
                "chaos.injected",
                component="chaos",
                corr=corr,
                kind=fault.kind.value,
                target=fault.target,
                start=fault.start,
                end=-1.0 if fault.end == float("inf") else fault.end,
                magnitude=fault.magnitude,
            )
            if fault.start < fault.end < float("inf"):
                # The fault's active window as a retroactively-known span:
                # the ground truth a recovery scorer lines results against.
                obs.tracer.span_at(
                    f"chaos.{fault.kind.value}",
                    fault.start,
                    fault.end,
                    component="chaos",
                    corr=corr,
                    target=fault.target,
                    magnitude=fault.magnitude,
                )

            def note_revoked() -> None:
                obs.metrics.counter(
                    "chaos_faults_revoked_total", kind=fault.kind.value
                ).inc()
                obs.tracer.event(
                    "chaos.revoked",
                    component="chaos",
                    corr=corr,
                    kind=fault.kind.value,
                    target=fault.target,
                )

            fault._on_revoke.append(note_revoked)
        return fault

    def _schedule(self, fault: ChaosFault, at: float, action, *args) -> None:
        def run() -> None:
            if fault.revoked:
                return
            fault.fired = True
            obs = self.simulator.obs
            if obs is not None:
                obs.metrics.counter(
                    "chaos_faults_fired_total", kind=fault.kind.value
                ).inc()
                obs.tracer.event(
                    "chaos.fired",
                    component="chaos",
                    corr=getattr(fault, "_corr", ""),
                    kind=fault.kind.value,
                    target=fault.target,
                )
            action(*args)

        fault._handles.append(self.simulator.schedule_at(at, run))

    # --------------------------------------------------------- executors

    def crash_executor(
        self, executor, *, at: float, restart_at: float | None = None
    ) -> ChaosFault:
        """Crash ``executor`` at ``at``: every scheduled, queued, and live
        execution is silently killed (no certificate, no publication) and
        new submissions are refused. With ``restart_at`` the executor
        comes back (empty) at that time; revoking the fault restarts it
        immediately if it is still down."""
        fault = ChaosFault(
            kind=ChaosKind.EXECUTOR_CRASH,
            target=f"executor {executor.asn}:{executor.interface}",
            start=at,
            end=restart_at if restart_at is not None else float("inf"),
        )
        self._schedule(fault, at, executor.crash)
        if restart_at is not None:
            self._schedule(fault, restart_at, executor.restart)

        def undo() -> None:
            if executor.crashed:
                executor.restart()

        fault._on_revoke.append(undo)
        return self._register(fault)

    def corrupt_executor(
        self,
        executor,
        *,
        strategy,
        start: float,
        end: float = float("inf"),
        seed: int = 0,
        **params,
    ) -> ChaosFault:
        """Turn ``executor`` Byzantine inside [start, end) (DESIGN.md §11).

        ``strategy`` is a :class:`~repro.core.byzantine.ByzantineStrategy`
        (or its string value); ``params`` are forwarded to
        :class:`~repro.core.byzantine.ByzantineCorruptor` (e.g.
        ``forge_log=True``). The corruptor is installed immediately but
        self-gates on its window, so corruption composes with every other
        fault — a Byzantine executor can also crash, lose publications,
        or face a ledger outage. The installed corruptor (and its attack
        ground truth) is exposed as ``fault.corruptor``; revoking the
        fault restores honesty.
        """
        from repro.core.byzantine import ByzantineCorruptor, ByzantineStrategy

        if isinstance(strategy, str):
            strategy = ByzantineStrategy(strategy)
        corruptor = ByzantineCorruptor(
            strategy=strategy, seed=seed, start=start, end=end, **params
        )
        fault = ChaosFault(
            kind=ChaosKind.BYZANTINE,
            target=f"executor {executor.asn}:{executor.interface}",
            start=start,
            end=end,
            magnitude=1.0,
        )
        fault.corruptor = corruptor
        executor.corruptor = corruptor

        def undo() -> None:
            if executor.corruptor is corruptor:
                executor.corruptor = None

        fault._on_revoke.append(undo)
        return self._register(fault)

    def expire_slots_early(self, agent, *, at: float) -> ChaosFault:
        """At ``at`` the executor behind ``agent`` reneges: all its still
        advertised slots are withdrawn on-chain and executions that have
        not started yet are cancelled. Running executions finish."""
        fault = ChaosFault(
            kind=ChaosKind.SLOT_EXPIRY,
            target=f"executor {agent.asn}:{agent.interface}",
            start=at,
            end=at,
        )

        def expire() -> None:
            try:
                agent.withdraw_slots()
            except ChainError:
                pass  # nothing advertised (all sold) — still cancel below
            agent.executor.cancel_pending(reason="slot expired early")

        self._schedule(fault, at, expire)
        return self._register(fault)

    # -------------------------------------------------------- heartbeats

    def _install_heartbeat_gate(self, member) -> list[ChaosFault]:
        """One gate per fleet member, consulting a shared fault list —
        the publication-gate pattern applied to liveness."""
        faults = getattr(member, "_chaos_heartbeat_faults", None)
        if faults is not None:
            return faults
        faults = []
        member._chaos_heartbeat_faults = faults

        def gate(now: float) -> bool:
            for fault in faults:
                if fault.active(now):
                    fault.fired = True
                    return True  # suppress the beat
            return False

        member.heartbeat_gate = gate
        return faults

    def lose_heartbeats(
        self, member, *, start: float, end: float = float("inf")
    ) -> ChaosFault:
        """Suppress a fleet member's heartbeats inside [start, end).

        The executor itself stays healthy — sold sessions keep running
        and publishing — but its control channel goes silent, so the
        :class:`~repro.core.fleetmgr.FleetManager` suspects and (past the
        eviction threshold) evicts it. The default open end models a
        permanently severed channel; revoking restores the beats.
        """
        asn, interface = member.vantage
        fault = ChaosFault(
            kind=ChaosKind.HEARTBEAT_LOSS,
            target=f"member {asn}:{interface}",
            start=start,
            end=end,
            magnitude=1.0,
        )
        faults = self._install_heartbeat_gate(member)
        faults.append(fault)
        fault._on_revoke.append(lambda: faults.remove(fault))
        return self._register(fault)

    # ------------------------------------------------------ publications

    def _install_publication_gate(self, agent) -> list[ChaosFault]:
        """One gate per agent, consulting a shared per-agent fault list."""
        faults = getattr(agent, "_chaos_publication_faults", None)
        if faults is not None:
            return faults
        faults = []
        agent._chaos_publication_faults = faults

        def gate(application_id: str, record) -> object:
            now = self.simulator.now
            for fault in faults:
                if not fault.active(now):
                    continue
                fault.fired = True
                if fault.kind is ChaosKind.PUBLICATION_DROP:
                    return "drop"
                # Delay past the fault window (plus the configured extra);
                # the publication path re-consults the gate afterwards.
                return ("delay", fault.end - now + fault.magnitude)
            return "publish"

        agent.publication_gate = gate
        return faults

    def drop_publications(self, agent, *, start: float, end: float) -> ChaosFault:
        """Results certified by ``agent`` inside [start, end) are never
        published: the executor keeps the escrowed payment unclaimed and
        the initiator must recover via its deadline."""
        fault = ChaosFault(
            kind=ChaosKind.PUBLICATION_DROP,
            target=f"agent {agent.asn}:{agent.interface}",
            start=start,
            end=end,
            magnitude=1.0,
        )
        faults = self._install_publication_gate(agent)
        faults.append(fault)
        fault._on_revoke.append(lambda: faults.remove(fault))
        return self._register(fault)

    def delay_publications(
        self, agent, *, start: float, end: float, extra: float = 0.0
    ) -> ChaosFault:
        """Publications attempted inside [start, end) are deferred until
        ``extra`` seconds after the window closes."""
        fault = ChaosFault(
            kind=ChaosKind.PUBLICATION_DELAY,
            target=f"agent {agent.asn}:{agent.interface}",
            start=start,
            end=end,
            magnitude=extra,
        )
        faults = self._install_publication_gate(agent)
        faults.append(fault)
        fault._on_revoke.append(lambda: faults.remove(fault))
        return self._register(fault)

    # ------------------------------------------------------------ ledger

    def _install_ledger_gates(self) -> None:
        if self._gates_installed:
            return
        if self.ledger is None:
            raise ValueError("this injector was built without a ledger")
        self._gates_installed = True
        previous_gate = self.ledger.submit_gate
        previous_delay = self.ledger.event_delay

        def gate(tx, now: float) -> None:
            if previous_gate is not None:
                previous_gate(tx, now)
            for fault in self._tx_faults:
                if not fault.active(now):
                    continue
                if fault.sender is not None and tx.sender != fault.sender:
                    continue
                fault.fired = True
                raise LedgerUnavailable(
                    f"ledger unavailable (chaos window "
                    f"[{fault.start:.3f}, {fault.end:.3f}))"
                )

        def delay(now: float) -> float:
            extra = 0.0 if previous_delay is None else previous_delay(now)
            for fault in self._finality_faults:
                if fault.active(now):
                    fault.fired = True
                    extra += fault.magnitude
            return extra

        self.ledger.submit_gate = gate
        self.ledger.event_delay = delay

    def fail_transactions(
        self, *, start: float, end: float, sender: str | None = None
    ) -> ChaosFault:
        """Transactions submitted inside [start, end) — optionally only
        from ``sender`` — are refused with :class:`LedgerUnavailable`
        before touching any ledger state. Retried submissions after the
        window succeed; the ledger's history never sees the outage."""
        self._install_ledger_gates()
        fault = ChaosFault(
            kind=ChaosKind.TX_FAILURE,
            target=sender or "all senders",
            start=start,
            end=end,
            sender=sender,
        )
        self._tx_faults.append(fault)
        fault._on_revoke.append(lambda: self._tx_faults.remove(fault))
        return self._register(fault)

    def delay_finality(
        self, *, extra: float, start: float, end: float
    ) -> ChaosFault:
        """Events from transactions finalized inside [start, end) are
        delivered ``extra`` seconds later than ``finality_latency``."""
        self._install_ledger_gates()
        fault = ChaosFault(
            kind=ChaosKind.FINALITY_DELAY,
            target="ledger finality",
            start=start,
            end=end,
            magnitude=extra,
        )
        self._finality_faults.append(fault)
        fault._on_revoke.append(lambda: self._finality_faults.remove(fault))
        return self._register(fault)

    # ------------------------------------------------------- randomness

    def random_fault(self, agents, *, start: float, end: float) -> ChaosFault:
        """Inject one seeded-random fault against a random agent within
        [start, end). Same seed + same call sequence = same faults."""
        agent = agents[int(self.rng.integers(0, len(agents)))]
        at = float(self.rng.uniform(start, end))
        until = float(self.rng.uniform(at, end))
        kind = _RANDOM_KINDS[int(self.rng.integers(0, len(_RANDOM_KINDS)))]
        if kind is ChaosKind.EXECUTOR_CRASH:
            return self.crash_executor(agent.executor, at=at, restart_at=until)
        if kind is ChaosKind.PUBLICATION_DROP:
            return self.drop_publications(agent, start=at, end=until)
        if kind is ChaosKind.PUBLICATION_DELAY:
            return self.delay_publications(
                agent, start=at, end=until, extra=float(self.rng.uniform(0.0, 2.0))
            )
        if kind is ChaosKind.TX_FAILURE:
            return self.fail_transactions(start=at, end=until)
        if kind is ChaosKind.FINALITY_DELAY:
            return self.delay_finality(
                extra=float(self.rng.uniform(0.5, 3.0)), start=at, end=until
            )
        return self.expire_slots_early(agent, at=at)

    def revoke_all(self) -> None:
        for fault in self.injected:
            fault.revoke()
        self.injected.clear()
