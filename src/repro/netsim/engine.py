"""Discrete-event simulation engine.

A :class:`Simulator` owns a priority queue of timestamped events. Components
schedule callbacks; the run loop pops them in time order. Ties are broken by
insertion order, which keeps runs fully deterministic.

Two scheduling paths exist. :meth:`Simulator.schedule_at` returns an
:class:`EventHandle` that can be cancelled. :meth:`Simulator.post` is the
hot path for fire-and-forget events (packet hops, probe sends): it stores
the callback directly in the heap entry tuple, skipping the handle
allocation entirely. Cancelled handles are counted live and the queue is
compacted lazily once more than half of it is dead.

A callback whose last act would be to ``post`` the event that is due next
may :meth:`Simulator.claim` it instead and go straight on into it (the rule
is stated beside :meth:`Simulator.post`); :meth:`Simulator.stop` ends a
:meth:`Simulator.run` once the running callback returns.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import count
from typing import Any, Callable

from repro.common.errors import SimulationError

#: Queue compaction triggers only past this many live-cancelled entries, so
#: small simulations never pay the rebuild cost.
_COMPACT_MIN_CANCELLED = 64

#: With observability enabled, queue depth is sampled every this many
#: dispatched events (a histogram observation, not a trace event).
_OBS_SAMPLE_EVERY = 256

#: Size of the recent-dispatch ring kept for failure diagnostics
#: (:meth:`Simulator.recent_event_lines`, used by ``SessionStalled``).
_RECENT_RING = 64
#: How many of them :meth:`Simulator.recent_event_lines` reports.
_RECENT_LINES = 10


def _callback_name(callback: Callable) -> str:
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = type(callback).__name__
    return name


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once,
        including after the event already fired (then it is a no-op)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        self._sim = None
        if sim is not None:
            sim._note_cancelled()


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in seconds, starting at 0.0. Events scheduled for the
    same instant fire in the order they were scheduled.
    """

    def __init__(self) -> None:
        # Heap entries are either ``(time, seq, handle)`` for cancellable
        # events or ``(time, seq, None, callback, args)`` for events posted
        # on the fast path. ``(time, seq)`` is a unique prefix, so the
        # mixed tuple shapes never get compared beyond it.
        self._queue: list[tuple] = []
        self._sequence = count()
        self._now = 0.0
        self._running = False
        # What :meth:`claim` may take: up to the running uninstrumented
        # ``run``'s ``until`` (``inf`` without one); ``-inf`` outside such a
        # run and after :meth:`stop`, so nothing is claimed.
        self._claim_limit = -math.inf
        self._stopping = False
        self._events_processed = 0
        self._cancelled = 0
        # Observability (repro.obs). ``obs`` stays None unless a bundle is
        # attached; the run loop then switches to its instrumented twin.
        self.obs = None
        self._instrumented = False
        self._recent: deque | None = None
        self._obs_tick = 0

    def attach_observability(self, obs) -> None:
        """Attach a :class:`repro.obs.Observability` bundle.

        Binds the bundle's clock to this simulator and pre-resolves the
        engine's recorders so the run loop records with direct method
        calls (no registry lookups per event).
        """
        self.obs = obs
        obs.bind_clock(lambda: self._now)
        metrics = obs.metrics
        self._m_events = metrics.counter("engine_events_total")
        self._m_cancelled = metrics.counter("engine_events_cancelled_total")
        self._m_compactions = metrics.counter("engine_compactions_total")
        self._h_queue = metrics.histogram("engine_queue_depth")
        self._h_lead = metrics.histogram("engine_event_lead_seconds")
        self._instrumented = True
        self._recent = deque(maxlen=_RECENT_RING)

    def recent_event_lines(self) -> list[str]:
        """The last ``_RECENT_LINES`` dispatched events as ``t=..s name``
        strings.

        Empty unless an observability bundle is attached — the detached
        hot path keeps no history.
        """
        if not self._recent:
            return []
        recent = list(self._recent)[-_RECENT_LINES:]
        return [f"t={t:.6f}s {name}" for t, name in recent]

    def _note_dispatch(self, time: float, callback: Callable) -> None:
        """Per-event bookkeeping on the instrumented path."""
        self._m_events.inc()
        self._recent.append((time, _callback_name(callback)))
        self._obs_tick += 1
        if self._obs_tick >= _OBS_SAMPLE_EVERY:
            self._obs_tick = 0
            self._h_queue.observe(len(self._queue) - self._cancelled)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued and able to fire.

        Cancelled-but-unpopped events are excluded: a live count is kept,
        incremented by :meth:`EventHandle.cancel` and decremented when a
        dead entry is popped or compacted away.
        """
        return len(self._queue) - self._cancelled

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        handle = EventHandle(time, callback, args, self)
        heapq.heappush(self._queue, (time, next(self._sequence), handle))
        if self._instrumented:
            self._h_lead.observe(time - self._now)
        return handle

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def post(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a fire-and-forget event at absolute ``time``.

        The hot-path twin of :meth:`schedule_at`: the callback and args
        ride in the heap tuple itself, with no :class:`EventHandle`
        allocated. Use for events that are never cancelled (packet hops,
        probe sends); behaviour and ordering are otherwise identical. When
        the post would be the callback's last act and the event is due
        next, :meth:`claim` (below) saves the round trip through the heap.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        heapq.heappush(
            self._queue, (time, next(self._sequence), None, callback, args)
        )
        if self._instrumented:
            self._h_lead.observe(time - self._now)

    def claim(self, time: float) -> bool:
        """Take the event at ``time`` as the one dispatched next, in place.

        The claim rule, and the one place it lives. A callback whose last
        act would be ``post(time, ...)`` calls ``claim(time)`` instead; on
        True the clock reads ``time`` and ``events_processed`` has counted
        one event, exactly as if the event had been posted, popped and
        dispatched, and the callback goes straight on into what that event
        would have run. It returns True iff all four hold:

        - we are inside an uninstrumented :meth:`run` (so :meth:`step`
          pumps and observability-recording runs never claim, and their
          exports are unchanged);
        - no :meth:`stop` has been requested;
        - ``time`` is at or before that run's ``until``;
        - ``time`` is strictly earlier than the heap head (and not before
          the clock): on a tie the queued event goes first, because it
          holds the lower sequence number.

        Under those conditions ``time`` is the event the run loop would pop
        next, so claiming moves no fate. A claimed event takes no sequence
        number; later ones keep their relative order, which is all a
        sequence number decides. The caller must have nothing left to do
        once it goes on (the rest of its event would otherwise run at the
        claimed instant). Two callers: :meth:`Network._hop
        <repro.netsim.network.Network._hop>` for a packet's next hop and
        the executor's host-call resumes.
        """
        if self._now <= time <= self._claim_limit:
            queue = self._queue
            if not queue or time < queue[0][0]:
                self._now = time
                self._events_processed += 1
                return True
        return False

    def stop(self) -> None:
        """End the current :meth:`run` once the running callback returns.

        The clock stays at that event (a stopped ``run(until=...)`` does not
        advance it to ``until``) and nothing is claimed after the request.
        Outside a run it does nothing.
        """
        self._stopping = True
        self._claim_limit = -math.inf

    # ------------------------------------------------------- cancellation

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` while the entry is queued."""
        self._cancelled += 1
        if self._instrumented:
            self._m_cancelled.inc()
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (lazy compaction hook)."""
        # In-place so aliases held by a running loop stay valid.
        self._queue[:] = [
            entry
            for entry in self._queue
            if entry[2] is None or not entry[2].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled = 0
        if self._instrumented:
            self._m_compactions.inc()
            self.obs.tracer.event(
                "engine.compaction", component="engine",
                queue_depth=len(self._queue),
            )

    # ---------------------------------------------------------- execution

    def step(self) -> bool:
        """Fire the next non-cancelled event. Returns False when idle."""
        instrumented = self._instrumented
        while self._queue:
            entry = heapq.heappop(self._queue)
            handle = entry[2]
            if handle is None:
                self._now = entry[0]
                self._events_processed += 1
                if instrumented:
                    self._note_dispatch(entry[0], entry[3])
                entry[3](*entry[4])
                return True
            if handle.cancelled:
                self._cancelled -= 1
                continue
            handle._sim = None
            self._now = entry[0]
            self._events_processed += 1
            if instrumented:
                self._note_dispatch(entry[0], handle.callback)
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run events until the queue drains, simulated ``until`` passes, or
        a callback calls :meth:`stop`.

        With ``until`` set, the clock is advanced to exactly ``until`` even
        if the last event fires earlier (unless stopped), so repeated
        ``run(until=...)`` calls observe monotonically increasing time.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopping = False
        queue = self._queue
        limit = math.inf if until is None else until
        try:
            if self._instrumented:
                self._run_instrumented(queue, limit)
            else:
                self._claim_limit = limit
                while queue and not self._stopping:
                    if queue[0][0] > limit:
                        break
                    entry = heapq.heappop(queue)
                    handle = entry[2]
                    if handle is None:
                        self._now = entry[0]
                        self._events_processed += 1
                        entry[3](*entry[4])
                        continue
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    handle._sim = None
                    self._now = entry[0]
                    self._events_processed += 1
                    handle.callback(*handle.args)
            if until is not None and until > self._now and not self._stopping:
                self._now = until
        finally:
            self._running = False
            self._claim_limit = -math.inf

    def _run_instrumented(self, queue: list, until: float) -> None:
        """The run loop's recording twin: same semantics, plus per-event
        counters, the recent-dispatch ring, and sampled queue depth. It
        never lets a callback :meth:`claim`."""
        while queue and not self._stopping:
            if queue[0][0] > until:
                break
            entry = heapq.heappop(queue)
            handle = entry[2]
            if handle is None:
                self._now = entry[0]
                self._events_processed += 1
                self._note_dispatch(entry[0], entry[3])
                entry[3](*entry[4])
                continue
            if handle.cancelled:
                self._cancelled -= 1
                continue
            handle._sim = None
            self._now = entry[0]
            self._events_processed += 1
            self._note_dispatch(entry[0], handle.callback)
            handle.callback(*handle.args)

    def run_until_idle(self) -> None:
        """Run until no events remain."""
        self.run(until=None)
