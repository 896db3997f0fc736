"""The scalar transit as it stood before the compiled forwarding plan.

``ReferenceChannel.transit`` is that commit's ``DirectedChannel.transit``,
verbatim, with what it leaned on: the two per-protocol caches and the three
``CongestionProcess`` formulas it called (``drop_probability``,
``mean_queue_delay``, ``sample_queue_delay``, here as functions of the
process; only their ``_memo_t`` memo is gone, which changed no value).

Only where it draws has changed. It drew every value from one stream,
``derive_rng(seed, "channel", name)``; it now makes the same scalar calls,
under the same conditions, on one stream per kind — ``(…, "uniform")``,
``(…, "normal")`` and ``(…, "gamma", shape)`` — derived at the kind's first
draw and counted per call (``stream``). With every kind mapped back onto the
one stream it reproduced the single-stream ``transit`` exactly, bit-generator
state included. Never edit its arithmetic:
``tests/properties/test_prop_transit.py`` drives it and the block-served
``transit`` in ``src/`` through the same histories and demands the same
outcome, counters, serializer state and, per kind, values consumed and
generator state after every packet; ``event_golden.json`` was recorded
with it.
"""

from __future__ import annotations

from dataclasses import replace

from collections.abc import Callable

from repro.common.rng import RngStream, derive_rng
from repro.netsim.conduit import DirectedChannel
from repro.netsim.congestion import CongestionProcess
from repro.netsim.ecmp import EcmpGroup, single_route
from repro.netsim.packet import Packet, Protocol
from repro.netsim.treatment import TreatmentProfile
from tests.netsim.outcome import TransitOutcome


def reference_mean_queue_delay(
    congestion: CongestionProcess, t: float, *, priority: bool = False
) -> float:
    u = congestion.utilization(t)
    backlog = u / (1.0 - u)
    if priority:
        backlog *= congestion.config.priority_backlog_fraction
    return backlog * congestion.config.queue_service_time


def reference_sample_queue_delay(
    congestion: CongestionProcess,
    t: float,
    stream: Callable[..., RngStream],
    *,
    priority: bool = False,
) -> float:
    mean = reference_mean_queue_delay(congestion, t, priority=priority)
    if mean <= 0.0:
        return 0.0
    shape = congestion.config.queue_shape
    return float(stream("gamma", float(shape)).gamma(shape, mean / shape))


def reference_drop_probability(
    congestion: CongestionProcess, t: float, *, multiplier: float = 1.0
) -> float:
    u = congestion.utilization(t)
    excess = u - congestion.config.drop_threshold
    if excess <= 0.0:
        return 0.0
    probability = congestion.config.drop_scale * excess * excess * multiplier
    return min(probability, 1.0)


class ReferenceChannel(DirectedChannel):
    """A :class:`DirectedChannel` forwarding with the parent's ``transit``."""

    def __init__(self, name: str, *, seed: int = 0, **kwargs) -> None:
        super().__init__(name, seed=seed, **kwargs)
        self._ecmp_cache: dict[Protocol, EcmpGroup] = {}
        self._default_route = single_route()
        self._labels = (seed, "channel", name)
        #: Per kind: its generator, derived at the first draw, and the
        #: number of scalar draws made on it.
        self.streams: dict[tuple, RngStream] = {}
        self.consumed: dict[tuple, int] = {}

    def stream(self, *kind) -> RngStream:
        """The generator of ``kind``, for one scalar draw."""
        rng = self.streams.get(kind)
        if rng is None:
            rng = self.streams[kind] = derive_rng(*self._labels, *kind)
        self.consumed[kind] = self.consumed.get(kind, 0) + 1
        return rng

    @property
    def treatment(self) -> TreatmentProfile:
        return self._treatment

    @treatment.setter
    def treatment(self, value: TreatmentProfile) -> None:
        self._treatment = value
        self._treatment_cache = {}

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
        drop_probability += reference_drop_probability(
            self.congestion, t, multiplier=treatment.drop_multiplier
        )
        if active:
            if any(overlay.blackhole for overlay in active):
                self.packets_dropped += 1
                return TransitOutcome.dropped("blackhole")
            drop_probability += sum(overlay.extra_loss for overlay in active)
        if drop_probability > 0 and self.stream("uniform").random() < min(
            drop_probability, 1.0
        ):
            self.packets_dropped += 1
            return TransitOutcome.dropped("loss")

        ecmp = self.ecmp_for(packet.protocol)
        route_index = ecmp.select(packet, t, treatment.ecmp_granularity)
        route = ecmp.route(route_index)

        transmission = self.transmission_time(packet.size)
        self_queue = max(0.0, self._busy_until[treatment.priority] - t)
        self._busy_until[treatment.priority] = t + self_queue + transmission

        cross_queue = reference_sample_queue_delay(
            self.congestion, t, self.stream, priority=treatment.priority
        )

        jitter_scale = self.jitter_std + route.jitter + treatment.extra_jitter
        jitter = (
            abs(float(self.stream("normal").normal(0.0, jitter_scale)))
            if jitter_scale
            else 0.0
        )

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
                    delay += abs(
                        float(self.stream("normal").normal(0.0, overlay.extra_jitter))
                    )
        return TransitOutcome(delivered=True, delay=delay, route_index=route_index)
