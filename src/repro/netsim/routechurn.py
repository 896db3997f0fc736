"""Route churn: piecewise-constant base-delay shifts.

Figure 1 of the paper shows sudden ~5 ms RTT steps that the authors
attribute to route changes; Figure 2 shows a multi-hour delay increase that
affects UDP and raw IP but not ICMP or TCP. A :class:`RouteChurnProcess`
reproduces both: it holds a schedule of delay shifts, each optionally
restricted to a subset of protocols (modelling churn on only some of the
parallel routes a load balancer uses).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import derive_rng
from repro.netsim.packet import Protocol


@dataclass(frozen=True)
class RouteShift:
    """A base-delay change active during ``[start, end)``.

    ``protocols`` of ``None`` means the shift applies to every protocol.
    """

    start: float
    end: float
    delta: float
    protocols: frozenset[Protocol] | None = None

    def applies(self, t: float, protocol: Protocol) -> bool:
        if not self.start <= t < self.end:
            return False
        return self.protocols is None or protocol in self.protocols


class RouteChurnProcess:
    """A schedule of :class:`RouteShift` episodes.

    Shifts may be placed explicitly (scenario scripting) or generated
    randomly (Poisson arrivals, exponential holding times).
    """

    def __init__(self, shifts: list[RouteShift] | None = None) -> None:
        self.shifts: list[RouteShift] = list(shifts or [])
        # Bumped by :meth:`add`: a schedule grown in place is seen by
        # whoever stamped the channel (:meth:`DirectedChannel.state_stamp`).
        self._version = 0

    @classmethod
    def random(
        cls,
        *,
        seed: int,
        label: str = "churn",
        horizon: float = 86400.0,
        rate: float = 1.0 / 14400.0,
        mean_duration: float = 1800.0,
        delta_range: tuple[float, float] = (2e-3, 6e-3),
        protocols: frozenset[Protocol] | None = None,
    ) -> "RouteChurnProcess":
        """Generate shifts as a Poisson process over ``horizon`` seconds."""
        rng = derive_rng(seed, label)
        shifts: list[RouteShift] = []
        time = 0.0
        low, high = delta_range
        while True:
            time += float(rng.exponential(1.0 / rate)) if rate > 0 else horizon
            if time >= horizon:
                break
            duration = float(rng.exponential(mean_duration))
            delta = float(rng.uniform(low, high))
            shifts.append(RouteShift(time, time + duration, delta, protocols))
        return cls(shifts)

    def add(self, shift: RouteShift) -> None:
        self.shifts.append(shift)
        self._version += 1

    def offset(self, t: float, protocol: Protocol) -> float:
        """Total delay shift in effect at ``t`` for ``protocol``."""
        return sum(s.delta for s in self.shifts if s.applies(t, protocol))


def no_churn() -> RouteChurnProcess:
    """A churn process with no shifts."""
    return RouteChurnProcess([])


def attach_churn_ensemble(
    topology,
    *,
    seed: int,
    fraction: float = 0.05,
    horizon: float = 86400.0,
    rate: float = 1.0 / 7200.0,
    mean_duration: float = 1200.0,
    delta_range: tuple[float, float] = (2e-3, 6e-3),
    label: str = "wanchurn",
) -> int:
    """Attach random churn to a seeded fraction of inter-domain links.

    ``topology`` must expose a deterministic ``links()`` iterator (see
    :class:`repro.netsim.internet.InternetTopology`). Each selected link
    gets independent forward/reverse churn schedules derived from
    ``(seed, label, a, b, direction)``, so the ensemble is reproducible
    and insensitive to selection order changes elsewhere. Returns the
    number of links churned.
    """
    from repro.common.rng import derive_seed

    selector = derive_rng(seed, label, "select")
    churned = 0
    for a, b, link in topology.links():
        if float(selector.random()) >= fraction:
            continue
        for direction, channel in (("fwd", link.forward), ("rev", link.reverse)):
            channel.churn = RouteChurnProcess.random(
                seed=derive_seed(seed, label, a, b, direction),
                horizon=horizon,
                rate=rate,
                mean_duration=mean_duration,
                delta_range=delta_range,
            )
        churned += 1
    return churned
