"""Conduits: the unidirectional delay/loss channels packets traverse.

A :class:`DirectedChannel` composes every forwarding effect the paper's
motivation study exposes — propagation delay, transmission time,
self-induced queueing (Lindley recursion per service class), stochastic
cross-traffic queueing from a :class:`~repro.netsim.congestion.CongestionProcess`,
ECMP route choice at a protocol-dependent granularity, route churn, and
protocol-differential drops — into a single ``transit`` call that yields a
:class:`TransitOutcome`.

Channels are used both for individual inter-domain/intra-AS links and, with
larger parameters, for aggregate Internet paths between distant cities
(the §II experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.rng import derive_buffered_rng
from repro.netsim.congestion import CongestionProcess, calm_congestion
from repro.netsim.ecmp import EcmpGroup, single_route
from repro.netsim.packet import Packet, Protocol
from repro.netsim.routechurn import RouteChurnProcess, no_churn
from repro.netsim.treatment import TreatmentProfile


@dataclass(frozen=True)
class FaultOverlay:
    """A fault-injected modifier active on a channel during ``[start, end)``.

    ``protocols`` of ``None`` applies to all protocols.
    """

    start: float
    end: float
    extra_delay: float = 0.0
    extra_loss: float = 0.0
    blackhole: bool = False
    extra_jitter: float = 0.0
    protocols: frozenset[Protocol] | None = None

    def applies(self, t: float, protocol: Protocol) -> bool:
        if not self.start <= t < self.end:
            return False
        return self.protocols is None or protocol in self.protocols


@dataclass
class TransitOutcome:
    """Result of pushing one packet through a channel."""

    delivered: bool
    delay: float = 0.0
    route_index: int = 0
    drop_reason: str | None = None

    @classmethod
    def dropped(cls, reason: str) -> "TransitOutcome":
        return cls(delivered=False, drop_reason=reason)


class DirectedChannel:
    """One direction of a link or aggregate path.

    All stochastic draws come from a stream derived from ``seed`` and the
    channel ``name``, so rebuilding the same topology reproduces identical
    packet fates.
    """

    def __init__(
        self,
        name: str,
        *,
        base_delay: float,
        bandwidth_bps: float = 10e9,
        jitter_std: float = 0.0,
        treatment: TreatmentProfile | None = None,
        congestion: CongestionProcess | None = None,
        ecmp: "EcmpGroup | dict[Protocol, EcmpGroup] | None" = None,
        churn: RouteChurnProcess | None = None,
        seed: int = 0,
    ) -> None:
        if base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        self.name = name
        self.base_delay = base_delay
        self.bandwidth_bps = bandwidth_bps
        self.jitter_std = jitter_std
        # Per-protocol caches, invalidated by the ``treatment`` setter and
        # kept out of the priority-address rewrite path.
        self._treatment_cache: dict[Protocol, object] = {}
        self._ecmp_cache: dict[Protocol, EcmpGroup] = {}
        self.treatment = treatment or TreatmentProfile.uniform()
        self.congestion = congestion or calm_congestion(seed, f"{name}/congestion")
        # ECMP groups may differ per protocol (different protocols really
        # do take different route sets); a plain group applies to all.
        if ecmp is None:
            self._ecmp_by_protocol: dict[Protocol | None, EcmpGroup] = {}
        elif isinstance(ecmp, EcmpGroup):
            self._ecmp_by_protocol = {None: ecmp}
        else:
            self._ecmp_by_protocol = dict(ecmp)
        self._default_route = single_route()
        self.churn = churn or no_churn()
        self.overlays: list[FaultOverlay] = []
        # Addresses whose packets get priority treatment regardless of
        # protocol — the §VI-E "ISP prioritizes executor traffic" attack.
        self.priority_addresses: set = set()
        # BufferedRng preserves the bare generator's draw sequence exactly
        # (see common.rng), so seeded traces are identical with or without
        # the buffering layer. The stream is derived at its first draw: a
        # channel no packet crosses never builds one.
        self._rng = derive_buffered_rng(seed, "channel", name)
        # Lindley recursion state: when the serializer frees up, per class.
        self._busy_until = {True: 0.0, False: 0.0}  # keyed by priority flag
        self.packets_in = 0
        self.packets_dropped = 0

    @property
    def treatment(self) -> TreatmentProfile:
        return self._treatment

    @treatment.setter
    def treatment(self, value: TreatmentProfile) -> None:
        self._treatment = value
        self._treatment_cache = {}

    def add_overlay(self, overlay: FaultOverlay) -> None:
        self.overlays.append(overlay)

    def remove_overlay(self, overlay: FaultOverlay) -> None:
        self.overlays.remove(overlay)

    def transmission_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.bandwidth_bps

    def ecmp_for(self, protocol: Protocol) -> EcmpGroup:
        """The route set ``protocol`` is balanced over on this channel."""
        group = self._ecmp_cache.get(protocol)
        if group is None:
            group = self._ecmp_by_protocol.get(protocol)
            if group is None:
                group = self._ecmp_by_protocol.get(None)
            if group is None:
                group = self._default_route
            self._ecmp_cache[protocol] = group
        return group

    def transit(self, packet: Packet, t: float) -> TransitOutcome:
        """Push ``packet`` into the channel at time ``t``.

        Returns the transit outcome; on delivery, ``delay`` is the total
        time until the packet exits the far end.
        """
        self.packets_in += 1
        treatment = self._treatment_cache.get(packet.protocol)
        if treatment is None:
            treatment = self._treatment.for_protocol(packet.protocol)
            self._treatment_cache[packet.protocol] = treatment
        if self.priority_addresses and (
            packet.src in self.priority_addresses
            or packet.dst in self.priority_addresses
        ):
            treatment = replace(treatment, priority=True, drop_multiplier=0.0)
        # Overlays are empty in the common case: skip the per-packet list
        # build and both aggregation passes entirely.
        if self.overlays:
            active = [o for o in self.overlays if o.applies(t, packet.protocol)]
        else:
            active = ()

        # Drop decision: protocol floor + congestion loss + fault overlays.
        drop_probability = treatment.base_drop
        drop_probability += self.congestion.drop_probability(
            t, multiplier=treatment.drop_multiplier
        )
        if active:
            if any(overlay.blackhole for overlay in active):
                self.packets_dropped += 1
                return TransitOutcome.dropped("blackhole")
            drop_probability += sum(overlay.extra_loss for overlay in active)
        if drop_probability > 0 and self._rng.random() < min(drop_probability, 1.0):
            self.packets_dropped += 1
            return TransitOutcome.dropped("loss")

        ecmp = self.ecmp_for(packet.protocol)
        route_index = ecmp.select(packet, t, treatment.ecmp_granularity)
        route = ecmp.route(route_index)

        transmission = self.transmission_time(packet.size)
        self_queue = max(0.0, self._busy_until[treatment.priority] - t)
        self._busy_until[treatment.priority] = t + self_queue + transmission

        cross_queue = self.congestion.sample_queue_delay(
            t, self._rng, priority=treatment.priority
        )

        jitter_scale = self.jitter_std + route.jitter + treatment.extra_jitter
        jitter = abs(float(self._rng.normal(0.0, jitter_scale))) if jitter_scale else 0.0

        delay = (
            self.base_delay
            + transmission
            + self_queue
            + cross_queue
            + route.delay_offset
            + (self.churn.offset(t, packet.protocol) if self.churn.shifts else 0.0)
            + treatment.extra_delay
            + jitter
        )
        if active:
            delay += sum(overlay.extra_delay for overlay in active)
            for overlay in active:
                if overlay.extra_jitter:
                    delay += abs(float(self._rng.normal(0.0, overlay.extra_jitter)))
        return TransitOutcome(delivered=True, delay=delay, route_index=route_index)

    @property
    def loss_fraction(self) -> float:
        """Observed drop fraction since construction."""
        if self.packets_in == 0:
            return 0.0
        return self.packets_dropped / self.packets_in


class Link:
    """A bidirectional link: two independent directed channels."""

    def __init__(self, forward: DirectedChannel, reverse: DirectedChannel) -> None:
        self.forward = forward
        self.reverse = reverse

    @classmethod
    def symmetric(
        cls,
        name: str,
        *,
        base_delay: float,
        seed: int = 0,
        **channel_kwargs,
    ) -> "Link":
        """Build a link whose two directions share parameters (not RNG)."""
        forward = DirectedChannel(
            f"{name}/fwd", base_delay=base_delay, seed=seed, **channel_kwargs
        )
        reverse = DirectedChannel(
            f"{name}/rev", base_delay=base_delay, seed=seed, **channel_kwargs
        )
        return cls(forward, reverse)

    def channel(self, direction: str) -> DirectedChannel:
        if direction == "forward":
            return self.forward
        if direction == "reverse":
            return self.reverse
        raise ValueError(f"unknown direction {direction!r}")
