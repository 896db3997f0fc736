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

``transit`` is the event engine's per-packet budget, so what it reads is
split in two. What is constant per ``(protocol, prioritized)`` is compiled
once into a small *plan* — the resolved :class:`ProtocolTreatment` (the
§VI-E priority variant built once, not per packet), the protocol's
:class:`EcmpGroup`, and its first route when selection cannot vary
(``SINGLE``, or a group of one) — and dropped by the ``treatment`` setter.
Everything else is read live, per packet, from the slot behind the public
name: ``priority_addresses`` (a set mutated in place), ``overlays``,
``congestion`` and ``churn`` (both replaced wholesale by the WAN
generators), ``base_delay``, ``jitter_std`` and ``bandwidth_bps``. Per
packet the utilization is read once
(:meth:`CongestionProcess.drop_and_queue_mean`) and the draws come straight
from the channel's bare generator in their standard forms, scaled here with
the arithmetic numpy uses itself — the sequence a seeded trace has always
seen.

The same rule, for readers that keep what they read across packets (the
vectorized path's :class:`~repro.netsim.fastpath.StageTable`): what is
replaced or assigned goes through a setter that bumps the channel's
``_version`` — ``treatment``, ``congestion``, ``churn``, ``base_delay``,
``jitter_std``, ``bandwidth_bps``, and ``add_overlay`` / ``remove_overlay``,
the only way ``overlays`` changes — and the two processes that grow in
place (``CongestionProcess.inject_burst`` / ``clear_injected``,
``RouteChurnProcess.add``) carry a version of their own, because one may
sit behind many channels. :meth:`DirectedChannel.state_stamp` is the three
together; a reader compares it and learns nothing about protocols. Still
read live on every visit, by everyone: ``priority_addresses``. Outside the
contract, here as for the plans: a ``TreatmentProfile.treatments`` dict,
an ``EcmpGroup.routes`` list or a ``RouteChurnProcess.shifts`` list mutated
in place. ``transit`` itself touches none of the versions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter

from repro.common import rng as streams
from repro.netsim.congestion import CongestionProcess, calm_congestion
from repro.netsim.ecmp import EcmpGroup, HashGranularity, Route, single_route
from repro.netsim.packet import Packet, Protocol
from repro.netsim.routechurn import RouteChurnProcess, no_churn
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile

#: What a protocol with no ECMP group of its own rides: one route, no
#: offset. Selection over one route keeps no state, so every channel shares it.
_SINGLE_ROUTE = single_route()


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


@dataclass(slots=True)
class TransitOutcome:
    """Result of pushing one packet through a channel."""

    delivered: bool
    delay: float = 0.0
    route_index: int = 0
    drop_reason: str | None = None

    @classmethod
    def dropped(cls, reason: str) -> "TransitOutcome":
        return cls(delivered=False, drop_reason=reason)


def _versioned(slot: str) -> property:
    """A public attribute kept in ``slot``; assigning it bumps ``_version``."""

    def assign(self, value) -> None:
        setattr(self, slot, value)
        self._version += 1

    return property(attrgetter(slot), assign)


class DirectedChannel:
    """One direction of a link or aggregate path.

    All stochastic draws come from a stream derived from ``seed`` and the
    channel ``name``, so rebuilding the same topology reproduces identical
    packet fates.
    """

    base_delay = _versioned("_base_delay")
    bandwidth_bps = _versioned("_bandwidth_bps")
    jitter_std = _versioned("_jitter_std")
    congestion = _versioned("_congestion")
    churn = _versioned("_churn")

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
        self._version = 0
        self._base_delay = base_delay
        self._bandwidth_bps = bandwidth_bps
        self._jitter_std = jitter_std
        self.treatment = treatment or TreatmentProfile.uniform()
        self._congestion = congestion or calm_congestion(seed, f"{name}/congestion")
        # ECMP groups may differ per protocol (different protocols really
        # do take different route sets); a plain group applies to all.
        if ecmp is None:
            self._ecmp_by_protocol: dict[Protocol | None, EcmpGroup] = {}
        elif isinstance(ecmp, EcmpGroup):
            self._ecmp_by_protocol = {None: ecmp}
        else:
            self._ecmp_by_protocol = dict(ecmp)
        self._churn = churn or no_churn()
        self.overlays: list[FaultOverlay] = []
        # Addresses whose packets get priority treatment regardless of
        # protocol — the §VI-E "ISP prioritizes executor traffic" attack.
        self.priority_addresses: set = set()
        # The stream is derived at its first draw: a channel no packet
        # crosses never builds one.
        self._stream_labels = (seed, "channel", name)
        self._rng: streams.RngStream | None = None
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
        self._version += 1
        # Forwarding plans per protocol, indexed by the prioritized flag.
        self._plans: tuple[dict, dict] = ({}, {})

    def state_stamp(self) -> tuple[int, int, int]:
        """Equal to an earlier stamp iff nothing a packed stage row is read
        from (module docstring) was replaced, assigned, added or removed
        in between."""
        return (self._version, self._congestion._version, self._churn._version)

    def add_overlay(self, overlay: FaultOverlay) -> None:
        self.overlays.append(overlay)
        self._version += 1

    def remove_overlay(self, overlay: FaultOverlay) -> None:
        """Take ``overlay`` — that object, not an equal one — off the channel.

        Two faults built from the same parameters carry equal (frozen)
        overlays; removing by equality would strip the other fault's.
        """
        for index, existing in enumerate(self.overlays):
            if existing is overlay:
                del self.overlays[index]
                self._version += 1
                return
        raise ValueError(f"overlay {overlay} is not on channel {self.name}")

    def transmission_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self._bandwidth_bps

    def ecmp_for(self, protocol: Protocol) -> EcmpGroup:
        """The route set ``protocol`` is balanced over on this channel."""
        groups = self._ecmp_by_protocol
        if not groups:
            return _SINGLE_ROUTE
        group = groups.get(protocol)
        if group is None:
            group = groups.get(None, _SINGLE_ROUTE)
        return group

    def _compile(
        self, protocol: Protocol, prioritized: bool
    ) -> tuple[ProtocolTreatment, EcmpGroup, Route | None]:
        """The forwarding plan for ``protocol``: treatment, route set, and
        the route itself when selection is constant (else ``None``)."""
        treatment = self._treatment.for_protocol(protocol)
        if prioritized:
            treatment = replace(treatment, priority=True, drop_multiplier=0.0)
        ecmp = self.ecmp_for(protocol)
        constant = (
            treatment.ecmp_granularity is HashGranularity.SINGLE
            or len(ecmp.routes) == 1
        )
        plan = (treatment, ecmp, ecmp.routes[0] if constant else None)
        self._plans[prioritized][protocol] = plan
        return plan

    def transit(self, packet: Packet, t: float) -> TransitOutcome:
        """Push ``packet`` into the channel at time ``t``.

        Returns the transit outcome; on delivery, ``delay`` is the total
        time until the packet exits the far end.
        """
        self.packets_in += 1
        protocol = packet.protocol
        addresses = self.priority_addresses
        prioritized = bool(addresses) and (
            packet.src in addresses or packet.dst in addresses
        )
        plan = self._plans[prioritized].get(protocol)
        if plan is None:
            plan = self._compile(protocol, prioritized)
        treatment, ecmp, route = plan
        priority = treatment.priority
        # Overlays are empty in the common case: skip the per-packet list
        # build and both aggregation passes entirely.
        if self.overlays:
            active = [o for o in self.overlays if o.applies(t, protocol)]
        else:
            active = ()

        # Drop decision: protocol floor + congestion loss + fault overlays.
        congestion = self._congestion
        congestion_drop, queue_mean = congestion.drop_and_queue_mean(
            t, treatment.drop_multiplier, priority
        )
        drop_probability = treatment.base_drop + congestion_drop
        if active:
            if any(overlay.blackhole for overlay in active):
                self.packets_dropped += 1
                return TransitOutcome.dropped("blackhole")
            drop_probability += sum(overlay.extra_loss for overlay in active)
        rng = self._rng
        if rng is None:
            rng = self._rng = streams.derive_rng(*self._stream_labels)
        # A uniform in [0, 1) is below any probability of 1 or more.
        if drop_probability > 0 and rng.random() < drop_probability:
            self.packets_dropped += 1
            return TransitOutcome.dropped("loss")

        if route is None:
            route_index = ecmp.select(packet, t, treatment.ecmp_granularity)
            route = ecmp.routes[route_index]
        else:
            route_index = 0

        transmission = packet.size * 8.0 / self._bandwidth_bps
        busy_until = self._busy_until
        self_queue = busy_until[priority] - t
        if self_queue < 0.0:
            self_queue = 0.0
        busy_until[priority] = t + self_queue + transmission

        if queue_mean > 0.0:
            shape = congestion.config.queue_shape
            cross_queue = queue_mean / shape * rng.standard_gamma(shape)
        else:
            cross_queue = 0.0

        jitter_scale = self._jitter_std + route.jitter + treatment.extra_jitter
        jitter = abs(jitter_scale * rng.standard_normal()) if jitter_scale else 0.0

        churn = self._churn
        delay = (
            self._base_delay
            + transmission
            + self_queue
            + cross_queue
            + route.delay_offset
            + (churn.offset(t, protocol) if churn.shifts else 0.0)
            + treatment.extra_delay
            + jitter
        )
        if active:
            delay += sum(overlay.extra_delay for overlay in active)
            for overlay in active:
                if overlay.extra_jitter:
                    delay += abs(overlay.extra_jitter * rng.standard_normal())
        return TransitOutcome(True, delay, route_index)

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
