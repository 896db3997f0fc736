"""Equal-cost multi-path route selection.

Forwarding devices spread traffic across parallel routes by hashing packet
fields. The *granularity* of that hash is protocol-dependent in practice —
the paper's §II hypothesizes that UDP is balanced on a finer-than-flow
basis (explaining its multi-modal RTT clusters, Fig 2, and wide spread,
Fig 3), while TCP sticks to one route per flow. This module implements
those granularities over a set of routes with distinct delay offsets.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.netsim.packet import Packet


class HashGranularity(enum.Enum):
    """How a load balancer keys its route hash."""

    SINGLE = "single"  # all traffic on one route
    PER_FLOW = "per_flow"  # classic 5-tuple hashing
    PER_FLOWLET = "per_flowlet"  # re-hash after an idle gap in the flow
    PER_PACKET = "per_packet"  # spray every packet independently
    PER_DEST = "per_dest"  # destination-only hashing


def _hash_to_unit(parts: tuple, salt: int) -> float:
    """Map a tuple of hashable parts to a float in [0, 1) deterministically."""
    hasher = hashlib.sha256(repr((salt,) + parts).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") / 2**64


@dataclass
class Route:
    """One member of an ECMP group.

    ``delay_offset`` is added on top of the conduit's base delay;
    ``jitter`` scales the per-packet noise on this route; ``weight``
    biases selection (WCMP).
    """

    delay_offset: float
    jitter: float = 0.0
    weight: float = 1.0
    name: str = ""


class EcmpGroup:
    """A weighted set of parallel routes with protocol-aware selection."""

    def __init__(
        self,
        routes: list[Route],
        *,
        salt: int = 0,
        flowlet_gap: float = 0.5,
    ) -> None:
        if not routes:
            raise ValueError("EcmpGroup requires at least one route")
        if any(route.weight <= 0 for route in routes):
            raise ValueError("route weights must be positive")
        self.routes = list(routes)
        self.salt = salt
        self.flowlet_gap = flowlet_gap
        total = sum(route.weight for route in self.routes)
        self._cumulative: list[float] = []
        acc = 0.0
        for route in self.routes:
            acc += route.weight / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0
        self._flowlet_state: dict[tuple, tuple[float, int]] = {}

    def __len__(self) -> int:
        return len(self.routes)

    def _pick(self, unit: float) -> int:
        for index, threshold in enumerate(self._cumulative):
            if unit < threshold:
                return index
        return len(self.routes) - 1

    def select(self, packet: Packet, t: float, granularity: HashGranularity) -> int:
        """Choose the route index for ``packet`` at time ``t``."""
        if granularity is HashGranularity.SINGLE or len(self.routes) == 1:
            return 0
        if granularity is HashGranularity.PER_PACKET:
            # Key on flow + sequence + send instant, not on any global
            # counter, so identical scenarios replay identically.
            key = packet.flow_key() + (packet.seq, t)
            return self._pick(_hash_to_unit(key, self.salt))
        if granularity is HashGranularity.PER_DEST:
            return self._pick(_hash_to_unit((packet.dst,), self.salt))
        if granularity is HashGranularity.PER_FLOW:
            return self._pick(_hash_to_unit(packet.flow_key(), self.salt))
        if granularity is HashGranularity.PER_FLOWLET:
            key = packet.flow_key()
            last = self._flowlet_state.get(key)
            if last is not None and t - last[0] <= self.flowlet_gap:
                self._flowlet_state[key] = (t, last[1])
                return last[1]
            # New flowlet: hash on the flow key plus a time-bucket nonce.
            nonce = int(t / max(self.flowlet_gap, 1e-9))
            index = self._pick(_hash_to_unit(key + (nonce,), self.salt))
            self._flowlet_state[key] = (t, index)
            return index
        raise ValueError(f"unknown granularity {granularity}")

    def route(self, index: int) -> Route:
        return self.routes[index]


def single_route(delay_offset: float = 0.0, jitter: float = 0.0) -> EcmpGroup:
    """An ECMP group with one route (no load balancing)."""
    return EcmpGroup([Route(delay_offset=delay_offset, jitter=jitter)])


def evenly_spread(
    count: int, spread: float, *, jitter: float = 0.0, salt: int = 0
) -> EcmpGroup:
    """``count`` routes whose delay offsets span ``[0, spread]`` evenly."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        offsets = [0.0]
    else:
        offsets = [spread * i / (count - 1) for i in range(count)]
    routes = [
        Route(delay_offset=offset, jitter=jitter, name=f"route-{i}")
        for i, offset in enumerate(offsets)
    ]
    return EcmpGroup(routes, salt=salt)
