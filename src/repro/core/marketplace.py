"""Marketplace runtime: wiring executors and initiators to the chain.

Implements the five-step measurement flow of §IV-A over the
:class:`~repro.contracts.debuglet_market.DebugletMarket` contract:

1. an endpoint (here: the initiator itself) wants a measurement;
2. the initiator generates Debuglet applications and looks up slots;
3. it purchases the slots, escrowing tokens with the bytecode on-chain;
4. executor agents — subscribed to ``ApplicationSubmitted`` events for
   their ``<AS, interface>`` — fetch, admit, and run the applications at
   the purchased window;
5. each agent publishes its certified result with ``result_ready``,
   collecting the escrowed payment; the initiator is notified through
   ``ResultReady`` events.

Result payloads on-chain are JSON: the raw result bytes (hex), the
execution status, and the executor's :class:`ResultCertificate` fields, so
any third party can run :mod:`repro.core.verification` against them.

Robustness layer (§IV-C failure handling; exercised by ``tests/chaos``):
every session walks an explicit :class:`SessionState` machine, transient
ledger outages (:class:`~repro.common.errors.LedgerUnavailable`) are
retried with seeded exponential backoff + jitter on both sides, sessions
can carry a hard deadline after which the initiator reclaims its escrow
(``refund_expired``) or fails over to a fresh slot, and
:meth:`Initiator.run_until_done` raises
:class:`~repro.common.errors.SessionStalled` instead of spinning forever.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.chain.events import Event
from repro.chain.ledger import Ledger, Wallet
from repro.common.errors import (
    ChainError,
    DebugletError,
    LedgerUnavailable,
    SessionStalled,
)
from repro.common.ids import ObjectId
from repro.common.rng import derive_rng
from repro.contracts.debuglet_market import APPLICATION_KIND, ExecutionSlot
from repro.core.application import DebugletApplication
from repro.core.executor import ExecutionRecord, Executor, ResultCertificate
from repro.core.offchain import OffChainCodeStore


def encode_result_payload(record: ExecutionRecord) -> bytes:
    """The on-chain result blob: result bytes + status + certificate."""
    certificate = record.certificate
    if certificate is None:
        raise DebugletError("execution record has no certificate")
    payload = {
        "result": record.result.hex(),
        "status": record.status,
        "packets_sent": record.packets_sent,
        "packets_received": record.packets_received,
        "certificate": {
            "asn": certificate.asn,
            "interface": certificate.interface,
            "code_hash": certificate.code_hash.hex(),
            "result_hash": certificate.result_hash.hex(),
            "started_at": certificate.started_at,
            "finished_at": certificate.finished_at,
            "public_key": certificate.executor_public_key.hex(),
            "signature": certificate.signature.hex(),
        },
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def decode_result_payload(blob: bytes) -> tuple[bytes, str, ResultCertificate]:
    """Inverse of :func:`encode_result_payload`."""
    try:
        payload = json.loads(blob.decode("utf-8"))
        cert = payload["certificate"]
        certificate = ResultCertificate(
            asn=cert["asn"],
            interface=cert["interface"],
            code_hash=bytes.fromhex(cert["code_hash"]),
            result_hash=bytes.fromhex(cert["result_hash"]),
            started_at=cert["started_at"],
            finished_at=cert["finished_at"],
            executor_public_key=bytes.fromhex(cert["public_key"]),
            signature=bytes.fromhex(cert["signature"]),
        )
        return bytes.fromhex(payload["result"]), payload["status"], certificate
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise DebugletError(f"malformed result payload: {exc}") from exc


class ExecutorAgent:
    """An executor's on-chain presence (steps 3–5 of the flow).

    Result publication survives transient ledger outages: on
    :class:`LedgerUnavailable` the agent retries with seeded exponential
    backoff + jitter (up to ``publish_retries`` times). Permanent reverts
    (e.g. the application was refunded after its window expired) are
    recorded in ``failed_publications`` rather than raised into the
    simulator loop. The ``publication_gate`` hook is the chaos layer's
    entry point for dropping or delaying publications.
    """

    def __init__(
        self,
        executor: Executor,
        ledger: Ledger,
        *,
        market: str = "debuglet_market",
        gas_funding: int = 10_000_000_000,
        code_store: "OffChainCodeStore | None" = None,
        publish_retries: int = 6,
        retry_base: float = 0.2,
        retry_jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.executor = executor
        self.ledger = ledger
        self.market = market
        self.wallet = Wallet(ledger, executor.keypair)
        if ledger.balance_of(self.wallet.address) < gas_funding:
            ledger.faucet(self.wallet.address, gas_funding)
        self.code_store = code_store
        self.publish_retries = publish_retries
        self.retry_base = retry_base
        self.retry_jitter = retry_jitter
        self._retry_rng = derive_rng(
            seed, "agent-retry", executor.asn, executor.interface
        )
        self.handled_applications: list[str] = []
        self.rejected_applications: list[tuple[str, str]] = []
        # Gate consulted before each publication attempt: returns "publish",
        # "drop", or ("delay", seconds). Installed by repro.chaos.
        self.publication_gate: (
            Callable[[str, ExecutionRecord], object] | None
        ) = None
        self.dropped_publications: list[str] = []
        self.failed_publications: list[tuple[str, str]] = []
        self.publication_retries = 0
        self._subscription = None

    @property
    def asn(self) -> int:
        return self.executor.asn

    @property
    def interface(self) -> int:
        return self.executor.interface

    @property
    def _obs(self):
        obs = self.executor.simulator.obs
        if obs is not None:
            return obs
        return getattr(self.ledger, "obs", None)

    def register(self, *, stake: int = 0) -> None:
        """RegisterExecutor + start watching for purchased applications.

        ``stake`` tokens (if any) are attached to the registration and
        escrowed as slashable collateral: burned by ``slash_executor`` on
        an audit conviction, withdrawable via ``withdraw_stake``
        otherwise (DESIGN.md §11).
        """
        self.wallet.must_call(
            self.market, "register_executor", self.asn, self.interface,
            value=stake,
        )
        self._subscription = self.ledger.events.subscribe(
            "ApplicationSubmitted",
            self._on_application,
            asn=self.asn,
            interface=self.interface,
        )

    def offer_slots(self, slots: list[ExecutionSlot]) -> None:
        """RegisterTimeSlot for this executor."""
        self.wallet.must_call(
            self.market,
            "register_time_slot",
            self.asn,
            self.interface,
            [slot.as_dict() for slot in slots],
        )

    def offer_standing_slots(
        self,
        *,
        horizon: float = 3600.0,
        price: int = 50_000_000,
        cores: int = 2,
        memory_mb: int = 512,
        bandwidth_mbps: int = 100,
        count: int = 16,
    ) -> None:
        """Offer ``count`` back-to-back slots covering the next ``horizon``
        seconds — the standing IaaS-style availability the paper expects
        ISPs to provision (§V-B)."""
        now = self.ledger.now
        width = horizon / count
        slots = [
            ExecutionSlot(
                cores=cores,
                memory_mb=memory_mb,
                bandwidth_mbps=bandwidth_mbps,
                start=now + i * width,
                end=now + (i + 1) * width,
                price=price,
            )
            for i in range(count)
        ]
        self.offer_slots(slots)

    def withdraw_slots(self) -> int:
        """Withdraw all still-advertised slots (renege on unsold inventory)."""
        receipt = self.wallet.must_call(
            self.market, "withdraw_time_slots", self.asn, self.interface
        )
        return receipt.return_value

    # ------------------------------------------------------ event handling

    def _on_application(self, event: Event) -> None:
        application_id = event.get("application_id")
        self.handled_applications.append(application_id)
        obj = self.ledger.objects.get(ObjectId.from_hex(application_id))
        if obj.kind != APPLICATION_KIND:
            return
        try:
            wire = self._fetch_wire(obj.data)
            application = DebugletApplication.from_wire(wire)
            self.executor.admit(application)
        except DebugletError as exc:
            # Inadmissible or unfetchable application: never run. The
            # initiator's escrow stays locked until it reclaims it with
            # refund_expired after the window passes.
            self.rejected_applications.append((application_id, str(exc)))
            return
        window_start = obj.data["window"]["start"]
        start_at = max(window_start, self.executor.simulator.now)

        def on_complete(record: ExecutionRecord) -> None:
            self._publish_result(application_id, record)

        try:
            self.executor.submit(application, start_at=start_at, on_complete=on_complete)
        except DebugletError as exc:
            # Down (crashed) or otherwise unable to schedule: treat like a
            # rejection — the session-level deadline handles recovery.
            self.rejected_applications.append((application_id, str(exc)))

    def _fetch_wire(self, data: dict) -> bytes:
        """The on-chain bytecode, or the off-chain blob verified against
        the on-chain hash (§V-B optimization)."""
        if "bytecode" in data:
            return data["bytecode"]
        digest = data.get("bytecode_hash")
        if digest is None:
            raise DebugletError("application object carries no code nor hash")
        if self.code_store is None:
            raise DebugletError("hash-only application but no off-chain store")
        return self.code_store.get_verified(digest)

    def _publish_result(
        self,
        application_id: str,
        record: ExecutionRecord,
        retries_left: int | None = None,
    ) -> None:
        if retries_left is None:
            retries_left = self.publish_retries
        obs = self._obs
        if self.publication_gate is not None:
            verdict = self.publication_gate(application_id, record)
            if verdict == "drop":
                self.dropped_publications.append(application_id)
                if obs is not None:
                    obs.metrics.counter(
                        "marketplace_publications_total", status="dropped"
                    ).inc()
                    obs.tracer.event(
                        "marketplace.publication_dropped",
                        component="marketplace",
                        application_id=application_id,
                        vantage=f"{self.asn}:{self.interface}",
                    )
                return
            if isinstance(verdict, tuple) and verdict[0] == "delay":
                self.executor.simulator.schedule(
                    max(float(verdict[1]), 0.0),
                    self._publish_result,
                    application_id,
                    record,
                    retries_left,
                )
                return
        try:
            self.wallet.must_call(
                self.market,
                "result_ready",
                application_id,
                encode_result_payload(record),
            )
        except LedgerUnavailable as exc:
            if retries_left > 0:
                attempt = self.publish_retries - retries_left
                delay = self.retry_base * (2**attempt) + float(
                    self._retry_rng.uniform(0.0, self.retry_jitter)
                )
                self.publication_retries += 1
                if obs is not None:
                    obs.metrics.counter(
                        "marketplace_retries_total", kind="publish"
                    ).inc()
                self.executor.simulator.schedule(
                    delay, self._publish_result, application_id, record,
                    retries_left - 1,
                )
            else:
                self.failed_publications.append(
                    (application_id, f"gave up after retries: {exc}")
                )
                if obs is not None:
                    obs.metrics.counter(
                        "marketplace_publications_total", status="failed"
                    ).inc()
        except ChainError as exc:
            self.failed_publications.append((application_id, str(exc)))
            if obs is not None:
                obs.metrics.counter(
                    "marketplace_publications_total", status="reverted"
                ).inc()
        else:
            if obs is not None:
                obs.metrics.counter(
                    "marketplace_publications_total", status="published"
                ).inc()


class SessionState(enum.Enum):
    """Lifecycle states of a :class:`MeasurementSession` (§IV-C)."""

    PENDING = "pending"  # request made; purchase not (yet) finalized
    PURCHASED = "purchased"  # slots bought, escrow locked, window ahead
    RUNNING = "running"  # execution window open, awaiting results
    CERTIFIED = "certified"  # both certified results decoded (terminal)
    TIMED_OUT = "timed-out"  # deadline missed; refund/failover under way
    REFUNDED = "refunded"  # escrow reclaimed after timeout (terminal)
    FAILED = "failed"  # no recovery possible (terminal)


#: States from which a session never moves again.
TERMINAL_STATES = frozenset(
    {SessionState.CERTIFIED, SessionState.REFUNDED, SessionState.FAILED}
)


@dataclass
class MeasurementOutcome:
    """One side's published result, decoded."""

    application_id: str
    result: bytes = b""
    status: str = ""
    certificate: ResultCertificate | None = None
    failure: str = ""  # why no result arrived, when the session degraded


@dataclass
class _RequestPlan:
    """Everything needed to (re-)purchase a session's slots."""

    client_app: DebugletApplication
    server_app: DebugletApplication
    vantages: list[tuple[tuple[int, int], tuple[int, int]]]
    duration: float
    cores: int
    memory_mb: int
    bandwidth_mbps: int
    earliest: float | None
    code_store: OffChainCodeStore | None
    deadline_margin: float | None
    tx_retries: int
    retry_base: float
    retry_jitter: float

    def vantage_for(self, attempt: int) -> tuple[tuple[int, int], tuple[int, int]]:
        return self.vantages[min(attempt - 1, len(self.vantages) - 1)]


@dataclass
class MeasurementSession:
    """A purchased client/server measurement awaiting results."""

    client_application: str = ""
    server_application: str = ""
    window_start: float = 0.0
    window_end: float = 0.0
    total_price: int = 0
    purchase_digest: bytes = b""
    requested_at: float = 0.0
    outcomes: dict[str, MeasurementOutcome] = field(default_factory=dict)
    completed_at: float | None = None
    on_complete: Callable[["MeasurementSession"], None] | None = None
    # Robustness layer.
    state: SessionState = SessionState.PENDING
    state_history: list[tuple[float, SessionState]] = field(default_factory=list)
    failure_reason: str = ""
    deadline: float | None = None
    attempt: int = 1
    max_attempts: int = 1
    purchase_retries: int = 0
    refunds: dict[str, int] = field(default_factory=dict)
    superseded_applications: list[str] = field(default_factory=list)
    plan: _RequestPlan | None = field(default=None, repr=False)
    # Internal bookkeeping (not part of the public API).
    _subscriptions: list = field(default_factory=list, repr=False)
    _deadline_handle: object = field(default=None, repr=False)
    _span: object = field(default=None, repr=False)
    _corr: str = field(default="", repr=False)
    _refunds_outstanding: int = field(default=0, repr=False)
    _settle_paid: int = field(default=0, repr=False)
    _refund_failures: list = field(default_factory=list, repr=False)

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def partial(self) -> bool:
        """Terminal, but with at least one side's result missing."""
        return self.done and any(not o.status for o in self.outcomes.values())

    @property
    def client_outcome(self) -> MeasurementOutcome:
        return self.outcomes["client"]

    @property
    def server_outcome(self) -> MeasurementOutcome:
        return self.outcomes["server"]

    @property
    def state_names(self) -> list[str]:
        """The state trajectory, for assertions and demos."""
        return [state.value for _, state in self.state_history]

    @property
    def delay_to_measurement(self) -> float:
        """Request-to-window-start latency (§V-B delay-to-measurement)."""
        return self.window_start - self.requested_at


class Initiator:
    """The requesting side: generates Debuglets, buys slots, awaits results.

    With a ``simulator`` attached (as :class:`MarketplaceTestbed` does),
    the initiator becomes failure-aware: transient ledger outages during
    purchase, result fetch, and refund are retried on the simulator clock
    with seeded exponential backoff + jitter; sessions given a
    ``deadline_margin`` time out, reclaim their escrow, and optionally
    fail over to a fresh slot.
    """

    def __init__(
        self,
        ledger: Ledger,
        wallet: Wallet,
        *,
        market: str = "debuglet_market",
        simulator=None,
        seed: int = 0,
    ) -> None:
        self.ledger = ledger
        self.wallet = wallet
        self.market = market
        self.simulator = simulator
        self._retry_rng = derive_rng(seed, "initiator-retry")
        self.sessions: list[MeasurementSession] = []

    @property
    def _obs(self):
        """The testbed's observability bundle, if one is wired up."""
        if self.simulator is not None and self.simulator.obs is not None:
            return self.simulator.obs
        return getattr(self.ledger, "obs", None)

    def request_measurement(
        self,
        client_app: DebugletApplication,
        server_app: DebugletApplication,
        client_vantage: tuple[int, int],
        server_vantage: tuple[int, int],
        *,
        duration: float,
        cores: int = 1,
        memory_mb: int = 128,
        bandwidth_mbps: int = 10,
        earliest: float | None = None,
        on_complete: Callable[[MeasurementSession], None] | None = None,
        code_store: OffChainCodeStore | None = None,
        deadline_margin: float | None = None,
        max_attempts: int = 1,
        failover_vantages: (
            list[tuple[tuple[int, int], tuple[int, int]]] | None
        ) = None,
        tx_retries: int = 4,
        retry_base: float = 0.2,
        retry_jitter: float = 0.1,
    ) -> MeasurementSession:
        """Steps 2–3: LookupSlot then PurchaseSlot with escrowed tokens.

        ``earliest`` defaults to now plus two finality latencies and a
        small margin — the soonest the executors can have learned of the
        purchase (both critical-path transactions must finalize).

        With ``code_store`` set, the applications ship off-chain and only
        their hashes are purchased on-chain (§V-B's ~1-cent optimization);
        the executor agents must share the same store.

        ``deadline_margin`` arms a per-session deadline at
        ``window_end + margin``: when it fires with results still missing
        the session transitions to ``timed-out`` and the initiator either
        fails over to a fresh slot (while ``max_attempts`` allows; later
        attempts use ``failover_vantages`` when given, else the original
        vantage pair) or refunds the unserved escrow. Transient ledger
        failures are retried up to ``tx_retries`` times with exponential
        backoff (``retry_base * 2**k``) plus seeded jitter. Without a
        ``deadline_margin`` the legacy behaviour is preserved: the session
        waits indefinitely and :meth:`run_until_done` is the backstop.
        """
        plan = _RequestPlan(
            client_app=client_app,
            server_app=server_app,
            vantages=[(client_vantage, server_vantage)]
            + list(failover_vantages or []),
            duration=duration,
            cores=cores,
            memory_mb=memory_mb,
            bandwidth_mbps=bandwidth_mbps,
            earliest=earliest,
            code_store=code_store,
            deadline_margin=deadline_margin,
            tx_retries=tx_retries,
            retry_base=retry_base,
            retry_jitter=retry_jitter,
        )
        session = MeasurementSession(
            requested_at=self.ledger.now,
            on_complete=on_complete,
            max_attempts=max(max_attempts, 1),
            plan=plan,
        )
        self.sessions.append(session)
        session._corr = f"session:{len(self.sessions)}"
        obs = self._obs
        if obs is not None:
            session._span = obs.tracer.begin(
                "marketplace.session",
                component="marketplace",
                corr=session._corr,
                client_app=client_app.name,
                server_app=server_app.name,
                client_vantage=f"{client_vantage[0]}:{client_vantage[1]}",
                server_vantage=f"{server_vantage[0]}:{server_vantage[1]}",
            )
        self._record(session, SessionState.PENDING)
        self._attempt_purchase(session, plan.tx_retries, first=True)
        return session

    # ----------------------------------------------------- state machine

    def _record(
        self, session: MeasurementSession, state: SessionState, reason: str = ""
    ) -> None:
        previous = session.state
        session.state = state
        session.state_history.append((self.ledger.now, state))
        if reason:
            session.failure_reason = reason
        obs = self._obs
        if obs is not None:
            obs.metrics.counter(
                "marketplace_session_transitions_total", state=state.value
            ).inc()
            obs.tracer.event(
                "marketplace.session_state",
                component="marketplace",
                corr=session._corr,
                from_state=previous.value,
                to_state=state.value,
                attempt=session.attempt,
                reason=reason,
            )
            if state in TERMINAL_STATES and session._span is not None:
                obs.tracer.finish(
                    session._span,
                    state=state.value,
                    attempts=session.attempt,
                    total_price=session.total_price,
                    refunds=len(session.refunds),
                    purchase_retries=session.purchase_retries,
                )
                session._span = None

    def _backoff(self, plan: _RequestPlan, attempt: int) -> float:
        return plan.retry_base * (2**attempt) + float(
            self._retry_rng.uniform(0.0, plan.retry_jitter)
        )

    # --------------------------------------------------------- purchasing

    def _attempt_purchase(
        self, session: MeasurementSession, retries_left: int, first: bool = False
    ) -> None:
        if session.done:
            return
        plan = session.plan
        (asn_c, intf_c), (asn_s, intf_s) = plan.vantage_for(session.attempt)
        now = self.ledger.now
        if plan.earliest is not None and plan.earliest > now:
            earliest = plan.earliest
        else:
            earliest = now + 2 * self.ledger.finality_latency + 0.1
        try:
            lookup = self.wallet.must_call(
                self.market,
                "lookup_slot",
                asn_c,
                intf_c,
                asn_s,
                intf_s,
                plan.cores,
                plan.memory_mb,
                plan.bandwidth_mbps,
                plan.duration,
                earliest,
            ).return_value
            if plan.code_store is None:
                client_payload = plan.client_app.to_wire()
                server_payload = plan.server_app.to_wire()
                purchase_function = "purchase_slot"
            else:
                client_payload = plan.code_store.put(plan.client_app.to_wire())
                server_payload = plan.code_store.put(plan.server_app.to_wire())
                purchase_function = "purchase_slot_hashed"
            purchase = self.wallet.must_call(
                self.market,
                purchase_function,
                asn_c,
                intf_c,
                asn_s,
                intf_s,
                lookup["client_slot_start"],
                lookup["server_slot_start"],
                lookup["start"],
                lookup["end"],
                client_payload,
                plan.client_app.manifest.as_dict(),
                server_payload,
                plan.server_app.manifest.as_dict(),
                value=lookup["total_price"],
            )
        except LedgerUnavailable as exc:
            if self.simulator is not None and retries_left > 0:
                session.purchase_retries += 1
                obs = self._obs
                if obs is not None:
                    obs.metrics.counter(
                        "marketplace_retries_total", kind="purchase"
                    ).inc()
                delay = self._backoff(plan, plan.tx_retries - retries_left)
                self.simulator.schedule(
                    delay, self._attempt_purchase, session, retries_left - 1
                )
                return
            if first:
                raise
            self._record(
                session,
                SessionState.FAILED,
                f"purchase failed after retries: {exc}",
            )
            # Terminal: notify like every other terminal transition, so
            # fleet-level schedulers see the completion.
            if session.on_complete is not None:
                session.on_complete(session)
            return
        except ChainError as exc:
            if first:
                raise
            self._record(
                session, SessionState.FAILED, f"failover purchase failed: {exc}"
            )
            if session.on_complete is not None:
                session.on_complete(session)
            return
        self._activate(session, lookup, purchase)

    def _activate(self, session: MeasurementSession, lookup, purchase) -> None:
        apps = purchase.return_value
        for subscription in session._subscriptions:
            self.ledger.events.unsubscribe(subscription)
        session._subscriptions = []
        if session.client_application:
            session.superseded_applications.extend(
                [session.client_application, session.server_application]
            )
        session.client_application = apps["client_application"]
        session.server_application = apps["server_application"]
        session.window_start = lookup["start"]
        session.window_end = lookup["end"]
        session.total_price = apps["total_price"]
        session.purchase_digest = purchase.digest
        session.outcomes = {
            "client": MeasurementOutcome(apps["client_application"]),
            "server": MeasurementOutcome(apps["server_application"]),
        }
        obs = self._obs
        if obs is not None:
            obs.metrics.counter("marketplace_purchases_total").inc()
            obs.metrics.counter("marketplace_escrow_locked_total").inc(
                session.total_price
            )
            obs.tracer.event(
                "marketplace.purchased",
                component="marketplace",
                corr=session._corr,
                attempt=session.attempt,
                total_price=session.total_price,
                window_start=session.window_start,
                window_end=session.window_end,
            )
        self._record(session, SessionState.PURCHASED)
        for role, app_id in (
            ("client", apps["client_application"]),
            ("server", apps["server_application"]),
        ):
            subscription = self.ledger.events.subscribe(
                "ResultReady",
                lambda event, role=role, session=session, app_id=app_id: (
                    self._on_result(session, role, app_id, event)
                ),
                application_id=app_id,
            )
            session._subscriptions.append(subscription)
        if self.simulator is not None:
            attempt = session.attempt
            self.simulator.schedule_at(
                max(self.simulator.now, session.window_start),
                self._mark_running,
                session,
                attempt,
            )
            if session.plan.deadline_margin is not None:
                session.deadline = session.window_end + session.plan.deadline_margin
                session._deadline_handle = self.simulator.schedule_at(
                    session.deadline, self._on_deadline, session, attempt
                )

    def _mark_running(self, session: MeasurementSession, attempt: int) -> None:
        if session.state is SessionState.PURCHASED and session.attempt == attempt:
            self._record(session, SessionState.RUNNING)

    # ------------------------------------------------------------ results

    def _on_result(
        self, session: MeasurementSession, role: str, application_id: str, event: Event
    ) -> None:
        if session.done or session.state is SessionState.TIMED_OUT:
            return
        outcome = session.outcomes.get(role)
        if outcome is None or outcome.application_id != application_id:
            return  # superseded by failover
        if outcome.status:
            return  # already recorded
        retries = session.plan.tx_retries if session.plan is not None else 0
        self._fetch_result(session, role, application_id, retries)

    def _fetch_result(
        self,
        session: MeasurementSession,
        role: str,
        application_id: str,
        retries_left: int,
    ) -> None:
        if session.done or session.state is SessionState.TIMED_OUT:
            return
        outcome = session.outcomes.get(role)
        if outcome is None or outcome.application_id != application_id:
            return
        if outcome.status:
            return
        try:
            lookup = self.wallet.must_call(
                self.market, "lookup_result", application_id
            ).return_value
        except LedgerUnavailable as exc:
            if self.simulator is not None and retries_left > 0:
                plan = session.plan
                obs = self._obs
                if obs is not None:
                    obs.metrics.counter(
                        "marketplace_retries_total", kind="fetch"
                    ).inc()
                delay = self._backoff(plan, plan.tx_retries - retries_left)
                self.simulator.schedule(
                    delay, self._fetch_result, session, role, application_id,
                    retries_left - 1,
                )
                return
            outcome.failure = f"result fetch failed: {exc}"
            return
        result, status, certificate = decode_result_payload(lookup["result"])
        outcome.result = result
        outcome.status = status
        outcome.certificate = certificate
        outcome.failure = ""
        if all(o.status for o in session.outcomes.values()):
            session.completed_at = self.ledger.now
            self._record(session, SessionState.CERTIFIED)
            if session._deadline_handle is not None:
                session._deadline_handle.cancel()
                session._deadline_handle = None
            if session.on_complete is not None:
                session.on_complete(session)

    # ----------------------------------------------- deadlines & refunds

    def _on_deadline(self, session: MeasurementSession, attempt: int) -> None:
        if session.done or session.attempt != attempt:
            return
        missing = [role for role, o in session.outcomes.items() if not o.status]
        for role in missing:
            session.outcomes[role].failure = (
                "no certified result before the session deadline"
            )
        self._record(
            session,
            SessionState.TIMED_OUT,
            f"deadline t={session.deadline:.3f} missed; "
            f"waiting on: {', '.join(missing) or 'nothing'}",
        )
        plan = session.plan
        if session.attempt < session.max_attempts:
            # Fail over: reclaim what this attempt escrowed, then buy a
            # fresh slot (possibly at an alternate vantage pair).
            for role in missing:
                self._refund(
                    session,
                    session.outcomes[role].application_id,
                    plan.tx_retries,
                    settle=False,
                )
            session.attempt += 1
            self._record(session, SessionState.PENDING)
            self._attempt_purchase(session, plan.tx_retries)
        else:
            pending = [session.outcomes[role].application_id for role in missing]
            session._refunds_outstanding = len(pending)
            session._settle_paid = 0
            if not pending:  # pragma: no cover - defensive
                self._finalize_timeout(session)
                return
            for app_id in pending:
                self._refund(session, app_id, plan.tx_retries, settle=True)

    def _refund(
        self,
        session: MeasurementSession,
        application_id: str,
        retries_left: int,
        *,
        settle: bool,
    ) -> None:
        if session.state is SessionState.CERTIFIED:
            return  # a result landed between scheduling and firing
        try:
            receipt = self.wallet.must_call(
                self.market, "refund_expired", application_id
            )
        except LedgerUnavailable as exc:
            if self.simulator is not None and retries_left > 0:
                plan = session.plan
                obs = self._obs
                if obs is not None:
                    obs.metrics.counter(
                        "marketplace_retries_total", kind="refund"
                    ).inc()
                delay = self._backoff(plan, plan.tx_retries - retries_left)
                self.simulator.schedule(
                    delay, self._refund, session, application_id,
                    retries_left - 1, settle=settle,
                )
                return
            session._refund_failures.append((application_id, str(exc)))
        except ChainError as exc:
            # Permanent: e.g. the executor published after the deadline
            # after all (escrow already paid out) — conservation holds.
            session._refund_failures.append((application_id, str(exc)))
        else:
            session.refunds[application_id] = receipt.return_value
            obs = self._obs
            if obs is not None:
                obs.metrics.counter("marketplace_refunds_total").inc()
                obs.metrics.counter("marketplace_escrow_refunded_total").inc(
                    receipt.return_value
                )
                obs.tracer.event(
                    "marketplace.refund",
                    component="marketplace",
                    corr=session._corr,
                    application_id=application_id,
                    amount=receipt.return_value,
                )
            if settle:
                session._settle_paid += 1
        if settle:
            session._refunds_outstanding -= 1
            if session._refunds_outstanding <= 0:
                self._finalize_timeout(session)

    def _finalize_timeout(self, session: MeasurementSession) -> None:
        if session.done:
            return
        failures = list(session._refund_failures)
        if session._settle_paid > 0:
            reason = (
                f"timed out after {session.attempt} attempt(s); "
                f"escrow refunded for {session._settle_paid} application(s)"
            )
            if failures:
                reason += f"; {len(failures)} refund(s) failed"
            self._record(session, SessionState.REFUNDED, reason)
        else:
            detail = "; ".join(msg for _, msg in failures) or "no refunds possible"
            self._record(
                session,
                SessionState.FAILED,
                f"timed out after {session.attempt} attempt(s) and could not "
                f"reclaim escrow: {detail}",
            )
        if session.on_complete is not None:
            session.on_complete(session)

    # -------------------------------------------------------- run helper

    @staticmethod
    def run_until_done(
        session: MeasurementSession,
        simulator,
        *,
        timeout: float | None = 600.0,
    ) -> MeasurementSession:
        """Pump the simulator until the session reaches a terminal state.

        Raises :class:`SessionStalled` — with the session attached — if
        the simulator goes idle first, or once ``timeout`` simulated
        seconds elapse (pass ``timeout=None`` to wait without bound).
        """
        limit = None if timeout is None else simulator.now + timeout
        recent = getattr(simulator, "recent_event_lines", None)
        while not session.done:
            if limit is not None and simulator.now >= limit:
                raise SessionStalled(
                    session,
                    f"session did not reach a terminal state within "
                    f"{timeout} simulated seconds",
                    events=recent() if recent is not None else None,
                )
            if not simulator.step():
                raise SessionStalled(
                    session,
                    "simulation idle before session completion",
                    events=recent() if recent is not None else None,
                )
        return session
