"""Cooperative session orchestration at fleet scale (DESIGN.md §10).

:meth:`Initiator.run_until_done` drives ONE session: it pumps the global
simulator until that session terminates. Launching thousands of sessions
that way serializes the fleet behind whichever session is pumped first and
re-walks the run loop once per session.

:class:`FleetScheduler` multiplexes instead. Sessions are *launched* as
ordinary simulator events (so a load ramp is just a schedule), completions
flow back through each session's ``on_complete`` callback, and one run
loop drains the whole fleet off the simulator clock — no busy-spin, no
per-session pumping. (The "fleet" here is a fleet of *sessions*: not
:class:`~repro.core.probing.ExecutorFleet`, the vantage → executor table
of the data-plane probers, and not
:class:`~repro.core.fleetmgr.FleetManager`, which owns executor
membership and liveness.) Three mechanisms keep it honest at scale:

- **ready queue** — with ``max_in_flight`` set, launches whose turn has
  come while the fleet is saturated wait in a FIFO and are admitted as
  earlier sessions complete (bounded admission);
- **deadline wheel** — stall detection costs one timer per coarse wheel
  bucket, not one per session: each launched session is filed into the
  bucket covering its deadline (plus grace), and the bucket's single
  callback re-checks its sessions, re-filing any whose deadline moved
  (failover) and raising :class:`SessionStalled` for any that wedged;
- **stall context** — a raised stall carries scheduler state (queue
  depths, launch/completion counts, the stalled session's ledger shard,
  live event subscriptions) so fleet-scale failures are debuggable from
  the exception message alone.

The scheduler adds no session semantics of its own: purchase retries,
backoff, deadlines, refunds, and failover all stay in
:class:`~repro.core.marketplace.Initiator` exactly as before — the chaos
suite runs unchanged against fleets (``tests/chaos``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from repro.common.errors import ConfigurationError, SessionStalled
from repro.common.ids import ObjectId
from repro.core.marketplace import MeasurementSession

#: Callback handed to a launch function; the launch function must pass it
#: as the session's ``on_complete``.
CompletionCallback = Callable[[MeasurementSession], None]

#: A launch function: receives the scheduler's completion callback and
#: returns the started session.
LaunchFn = Callable[[CompletionCallback], MeasurementSession]


class FleetScheduler:
    """Drives many :class:`MeasurementSession` machines off one simulator."""

    def __init__(
        self,
        simulator,
        *,
        ledger=None,
        max_in_flight: int | None = None,
        session_timeout: float = 600.0,
        stall_grace: float = 30.0,
        wheel_resolution: float = 5.0,
        auditor=None,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")
        if wheel_resolution <= 0:
            raise ConfigurationError("wheel_resolution must be positive")
        self.simulator = simulator
        self.ledger = ledger
        self.max_in_flight = max_in_flight
        self.session_timeout = session_timeout
        self.stall_grace = stall_grace
        self.wheel_resolution = wheel_resolution
        # Optional repro.core.audit.Auditor: every completed session is
        # handed over for always-on checks plus sampled replay audits,
        # scheduled cooperatively on the same simulator (DESIGN.md §11).
        self.auditor = auditor

        self.sessions: list[MeasurementSession] = []
        self.completed: list[MeasurementSession] = []
        self.launch_failures: list[str] = []
        self.peak_active = 0
        self._scheduled = 0  # launch events not yet fired
        self._active = 0
        self._ready: deque[tuple[LaunchFn, str]] = deque()
        # Deadline wheel: coarse bucket index -> sessions watched by that
        # bucket's (single) scheduled callback.
        self._wheel: dict[int, list[MeasurementSession]] = {}

    # ---------------------------------------------------------- obs

    @property
    def _obs(self):
        return getattr(self.simulator, "obs", None)

    def _set_active(self, delta: int) -> None:
        self._active += delta
        self.peak_active = max(self.peak_active, self._active)
        obs = self._obs
        if obs is not None:
            obs.metrics.gauge("sessions_active").set(self._active)

    # ------------------------------------------------------- launching

    @property
    def active(self) -> int:
        return self._active

    def launch(self, at: float, start: LaunchFn, *, label: str = "") -> None:
        """Schedule ``start`` to run at simulated time ``at``.

        ``start`` receives the scheduler's completion callback and must
        return the started session with that callback installed as its
        ``on_complete``.
        """
        self._scheduled += 1
        self.simulator.schedule_at(
            max(at, self.simulator.now), self._fire, start, label
        )

    def _fire(self, start: LaunchFn, label: str) -> None:
        self._scheduled -= 1
        if self.max_in_flight is not None and self._active >= self.max_in_flight:
            self._ready.append((start, label))
            return
        self._start(start, label)

    def _start(self, start: LaunchFn, label: str) -> None:
        self._set_active(+1)
        try:
            session = start(self._on_session_complete)
        except Exception as exc:
            self._set_active(-1)
            self.launch_failures.append(f"{label or 'session'}: {exc}")
            obs = self._obs
            if obs is not None:
                obs.metrics.counter(
                    "fleet_sessions_total", state="launch-failed"
                ).inc()
            self._admit()
            return
        self.sessions.append(session)
        if session.done:  # completed synchronously (already counted down)
            return
        self._watch(session)

    def _on_session_complete(self, session: MeasurementSession) -> None:
        self._set_active(-1)
        self.completed.append(session)
        obs = self._obs
        if obs is not None:
            obs.metrics.counter(
                "fleet_sessions_total", state=session.state.value
            ).inc()
        if self.auditor is not None:
            self.auditor.on_session_complete(session)
        self._admit()

    def _admit(self) -> None:
        while self._ready and (
            self.max_in_flight is None or self._active < self.max_in_flight
        ):
            start, label = self._ready.popleft()
            self._start(start, label)

    # --------------------------------------------------- deadline wheel

    def _watch_time(self, session: MeasurementSession) -> float:
        if session.deadline is not None:
            return session.deadline + self.stall_grace
        return self.simulator.now + self.session_timeout

    def _watch(self, session: MeasurementSession) -> None:
        at = self._watch_time(session)
        bucket = int(math.ceil(at / self.wheel_resolution))
        watched = self._wheel.get(bucket)
        if watched is None:
            self._wheel[bucket] = [session]
            self.simulator.schedule_at(
                bucket * self.wheel_resolution, self._check_bucket, bucket
            )
        else:
            watched.append(session)

    def _check_bucket(self, bucket: int) -> None:
        for session in self._wheel.pop(bucket, []):
            if session.done:
                continue
            at = self._watch_time(session)
            if at > self.simulator.now:
                # Deadline moved (failover bought a fresh window) or the
                # session was filed early — re-file, don't raise.
                self._watch(session)
                continue
            raise SessionStalled(
                session,
                "fleet watchdog: session still live past its deadline "
                f"(+{self.stall_grace:.0f}s grace)",
                events=self._recent_events(),
                context=self.stall_context(session),
            )

    # ------------------------------------------------------------- run

    def _recent_events(self) -> list[str] | None:
        recent = getattr(self.simulator, "recent_event_lines", None)
        return recent() if recent is not None else None

    def stall_context(self, session: MeasurementSession | None = None) -> dict:
        """Scheduler state for :class:`SessionStalled` diagnostics."""
        context = {
            "sim_now": round(self.simulator.now, 3),
            "active": self._active,
            "ready": len(self._ready),
            "scheduled": self._scheduled,
            "completed": len(self.completed),
            "launch_failures": len(self.launch_failures),
        }
        if self.ledger is not None:
            context["subscriptions"] = self.ledger.events.subscription_count()
            if session is not None and session.client_application:
                context["shard"] = self.ledger.objects.shard_of(
                    ObjectId.from_hex(session.client_application)
                )
        return context

    def outstanding(self) -> int:
        """Launches and sessions that have not reached a terminal state."""
        return self._scheduled + self._active + len(self._ready)

    def run(self, *, until: float | None = None) -> list[MeasurementSession]:
        """Drain the fleet: pump the simulator until every launched
        session is terminal. Returns the completed sessions.

        Raises :class:`SessionStalled` when the simulator goes idle with
        sessions outstanding, when ``until`` simulated time passes first,
        or when the deadline wheel finds a wedged session.
        """
        while self.outstanding():
            if until is not None and self.simulator.now >= until:
                raise SessionStalled(
                    self._first_live_session(),
                    f"fleet did not drain by t={until}",
                    events=self._recent_events(),
                    context=self.stall_context(self._first_live_session()),
                )
            if not self.simulator.step():
                if not self.outstanding():  # last event completed the fleet
                    break
                session = self._first_live_session()
                raise SessionStalled(
                    session,
                    "simulator idle with fleet sessions outstanding",
                    events=self._recent_events(),
                    context=self.stall_context(session),
                )
        return self.completed

    def _first_live_session(self) -> MeasurementSession | None:
        for session in self.sessions:
            if not session.done:
                return session
        return None
