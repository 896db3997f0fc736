"""Time-varying link congestion.

A :class:`CongestionProcess` models the utilization ``u(t)`` of a link (or
aggregate Internet path) as a deterministic diurnal baseline plus randomly
placed bursts. Queueing-delay samples and drop probabilities are derived
from the utilization at the query instant, with priority classes seeing a
fraction of the backlog — this is the mechanism behind the paper's
observation that ICMP (priority-queued) shows lower jitter than UDP/TCP.

The drop and queue-mean formulas are stated once, in
:meth:`CongestionProcess.drop_and_queue_mean`, which reads the utilization
once: it is what :meth:`DirectedChannel.transit` calls per packet, and
the gamma queueing draw around its mean is made there. ``utilization(t)``
is exact for any burst schedule — a burst is found however many later
ones have started — and a process with no natural bursts, or none
injected, pays nothing for the empty scan. A
*steady* process (no bursts of either kind, no diurnal swing) has one
utilization at every instant: ``drop_and_queue_mean`` keeps the first it
reads and reads it without a call from then on.

A :class:`CongestionConfig` is frozen and may be shared — every calm channel
of a generated Internet reads the one ``_CALM`` — while a process is per
channel or per AS: ``inject_burst`` / ``clear_injected`` are the only things
that change one after construction, and each bumps the process's
``_version`` so that a reader holding what it read through *any* channel of
the process (:meth:`DirectedChannel.state_stamp`) sees it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.common import rng as streams

DAY = 86400.0


@dataclass(frozen=True)
class Burst:
    """A transient utilization increase on a link."""

    start: float
    duration: float
    magnitude: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class CongestionConfig:
    """Parameters of a congestion process.

    ``base_utilization`` is the average fraction of capacity in use;
    ``diurnal_amplitude`` adds a sinusoid with a one-day period;
    bursts arrive as a Poisson process with the given rate (per second),
    exponential durations, and uniform magnitudes. Frozen: a config is
    shared (every calm channel reads the same one) and what was read from
    it stays read; a different load is a different process.
    """

    base_utilization: float = 0.30
    diurnal_amplitude: float = 0.10
    diurnal_phase: float = 0.0
    burst_rate: float = 1.0 / 3600.0
    burst_mean_duration: float = 120.0
    burst_magnitude_range: tuple[float, float] = (0.15, 0.45)
    queue_service_time: float = 0.4e-3
    queue_shape: float = 2.0
    priority_backlog_fraction: float = 0.12
    drop_threshold: float = 0.70
    drop_scale: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_utilization < 1.0:
            raise ValueError("base_utilization must be in [0, 1)")
        if self.queue_service_time <= 0:
            raise ValueError("queue_service_time must be positive")


class CongestionProcess:
    """Deterministic, seedable utilization process over a fixed horizon.

    The burst schedule is materialized up front for ``horizon`` seconds so
    that ``utilization(t)`` is a pure function of construction parameters —
    queries never mutate state and the process can be shared by many
    packets.
    """

    def __init__(
        self,
        config: CongestionConfig,
        *,
        seed: int = 0,
        label: str = "congestion",
        horizon: float = 2 * DAY,
    ) -> None:
        self.config = config
        self.horizon = horizon
        self._bursts: list[Burst] = []
        self._burst_starts: list[float] = []
        # ``_burst_reach[i]`` is the latest end among bursts ``0..i`` (by
        # start): non-decreasing, so the earliest burst that can still be
        # active at ``t`` is one bisection away.
        self._burst_reach: list[float] = []
        self._extra: list[Burst] = []  # fault-injected bursts, kept separate
        # Bumped by whatever changes ``_extra``. A process may be shared by
        # many channels (every interior channel of an AS) and does not know
        # them, so it carries its own stamp beside theirs
        # (:meth:`DirectedChannel.state_stamp`).
        self._version = 0
        # A steady process's utilization, once read (``None`` until then,
        # and after every change to ``_extra``).
        self._steady: float | None = None
        # A stream is a pure function of ``(seed, labels)``, so deriving it
        # only when there are bursts to schedule changes no draw — and a
        # continent's worth of calm links derives none.
        if config.burst_rate > 0:
            self._generate_bursts(streams.derive_rng(seed, label, "bursts"))

    def _generate_bursts(self, rng: streams.RngStream) -> None:
        config = self.config
        bursts: list[Burst] = []
        time = 0.0
        low, high = config.burst_magnitude_range
        while True:
            time += float(rng.exponential(1.0 / config.burst_rate))
            if time >= self.horizon:
                break
            duration = float(rng.exponential(config.burst_mean_duration))
            magnitude = float(rng.uniform(low, high))
            bursts.append(Burst(time, duration, magnitude))
        self._schedule(bursts)

    def _schedule(self, bursts: list[Burst]) -> None:
        """Install the natural bursts (ascending ``start``) and their index."""
        self._bursts = bursts
        self._burst_starts = [burst.start for burst in bursts]
        self._burst_reach = list(accumulate((burst.end for burst in bursts), max))

    def inject_burst(self, start: float, duration: float, magnitude: float) -> Burst:
        """Add a fault-injected congestion episode (used by fault injection)."""
        burst = Burst(start, duration, magnitude)
        self._extra.append(burst)
        self._version += 1
        self._steady = None
        return burst

    def clear_injected(self) -> None:
        """Remove all fault-injected bursts."""
        self._extra.clear()
        self._version += 1
        self._steady = None

    def utilization(self, t: float) -> float:
        """Utilization in [0, 0.99] at simulated time ``t``."""
        config = self.config
        value = config.base_utilization
        if config.diurnal_amplitude:
            value += config.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / DAY + config.diurnal_phase
            )
        # Natural bursts: only those starting at or before t can be active,
        # and none before the first whose reach exceeds t. Summed in start
        # order, whatever the number of bursts in between.
        starts = self._burst_starts
        if starts:
            index = bisect_right(starts, t)
            if index and self._burst_reach[index - 1] > t:
                first = bisect_right(self._burst_reach, t, 0, index)
                for burst in self._bursts[first:index]:
                    if t < burst.end:
                        value += burst.magnitude
        for burst in self._extra:
            if burst.start <= t < burst.end:
                value += burst.magnitude
        if value > 0.99:
            return 0.99
        return value if value >= 0.0 else 0.0

    def drop_and_queue_mean(
        self, t: float, multiplier: float, priority: bool
    ) -> tuple[float, float]:
        """``(congestion-loss probability, expected queueing delay)`` at ``t``.

        One utilization read serves both. The loss is zero below
        ``drop_threshold`` utilization, then grows quadratically, scaled by
        the protocol's ``multiplier``; the queue mean follows the
        M/M/1-style ``u / (1 - u)`` backlog growth, of which priority
        traffic only sees ``priority_backlog_fraction``.
        """
        config = self.config
        u = self._steady
        if u is None:
            u = self.utilization(t)
            if not (config.diurnal_amplitude or self._bursts or self._extra):
                self._steady = u  # the same at every instant: keep it
        excess = u - config.drop_threshold
        if excess <= 0.0:
            drop = 0.0
        else:
            drop = min(config.drop_scale * excess * excess * multiplier, 1.0)
        backlog = u / (1.0 - u)
        if priority:
            backlog *= config.priority_backlog_fraction
        return drop, backlog * config.queue_service_time


_CALM = CongestionConfig(
    base_utilization=0.05,
    diurnal_amplitude=0.0,
    burst_rate=0.0,
    queue_service_time=0.05e-3,
)


def calm_congestion(seed: int = 0, label: str = "calm") -> CongestionProcess:
    """A nearly idle link: negligible queueing, no natural bursts.

    Every calm process reads the one ``_CALM`` config — a continent builds
    thousands of these — but is its own process: bursts are injected per
    channel.
    """
    return CongestionProcess(_CALM, seed=seed, label=label)
