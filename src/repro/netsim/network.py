"""The forwarding engine: packets walking AS-level paths over the topology.

``Network`` binds a :class:`~repro.netsim.topology.Topology` to a
:class:`~repro.netsim.engine.Simulator`. Sending a packet expands its AS
path into a *trail* of directed-channel traversals with a border router (or
the destination host) at the end of each; the trail is then walked with one
simulator event per segment, and one callback per event
(:meth:`Network._hop`: the TTL at the router just reached, the next
channel's ``transit``, the next event). TTL is decremented at every border
router, and routers answer TTL expiry with rate-limited, slow-path ICMP
time-exceeded messages — the behaviour that makes real traceroute both
lossy and unrepresentative of data-packet latency (§II).

A trail is a pure function of the endpoints and the path over a static
topology, so it is expanded once: default routes are memoized by
``(src, dst)``, pinned paths by ``(src, dst, tuple(path))`` — a Debuglet's
probe train pins the same path on every packet — and
:meth:`Network.invalidate_routes` flushes both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.common.errors import SimulationError
from repro.common.rng import derive_buffered_rng
from repro.netsim.conduit import DirectedChannel
from repro.netsim.endhost import Host
from repro.netsim.engine import Simulator
from repro.netsim.packet import Address, IcmpType, Packet, Protocol
from repro.netsim.topology import (
    AutonomousSystem,
    BorderRouter,
    InterfaceId,
    PathHop,
    Topology,
)

DropCallback = Callable[[Packet, str, float], None]


@dataclass(slots=True)
class _Segment:
    """One channel traversal; ``router`` set when the segment ends at one."""

    channel: DirectedChannel
    router: BorderRouter | None = None
    host: Host | None = None


def walk_path(
    topology: Topology,
    path: list[PathHop],
    src_attachment: str,
    dst_attachment: str,
) -> Iterator[tuple[DirectedChannel, AutonomousSystem, int | None]]:
    """The channel traversals of a pinned AS path, in forwarding order.

    Yields ``(channel, autonomous system, interface)`` per traversal:
    source attachment to the first egress interface, then per crossed link
    the inter-domain channel and the next AS's interior channel
    (ingress to egress at a transit AS, ingress to ``dst_attachment`` at
    the last). ``interface`` is the border interface the traversal ends
    at, ``None`` when it ends at the destination attachment. This is the
    event engine's expansion (:meth:`Network._build_trail`) and the oracle
    of the vectorized path's hop-keyed one
    (:meth:`repro.netsim.fastpath.StageTable.entries_along`: same channel
    objects, same order — ``tests/properties/test_prop_stage_table.py``).
    """
    first = path[0]
    asys = topology.autonomous_system(first.asn)
    if len(path) == 1:
        yield asys.internal_channel(src_attachment, dst_attachment), asys, None
        return
    if first.egress is None:
        raise SimulationError("first hop has no egress interface")
    yield (
        asys.internal_channel(src_attachment, f"if{first.egress}"),
        asys,
        first.egress,
    )
    for hop, nxt in zip(path, path[1:]):
        if hop.egress is None or nxt.ingress is None:
            raise SimulationError("missing interface on transit hop")
        asys = topology.autonomous_system(nxt.asn)
        yield (
            topology.channel_between(
                InterfaceId(hop.asn, hop.egress), InterfaceId(nxt.asn, nxt.ingress)
            ),
            asys,
            nxt.ingress,
        )
        if nxt.egress is not None:
            yield (
                asys.internal_channel(f"if{nxt.ingress}", f"if{nxt.egress}"),
                asys,
                nxt.egress,
            )
        else:
            yield asys.internal_channel(f"if{nxt.ingress}", dst_attachment), asys, None


@dataclass
class NetworkStats:
    """Aggregate counters for a run."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    ttl_expiries: int = 0
    icmp_generated: int = 0
    drops_by_reason: dict[str, int] = field(default_factory=dict)

    def record_drop(self, reason: str) -> None:
        self.packets_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1


class Network:
    """Packet forwarding over a topology, driven by the event engine."""

    def __init__(self, topology: Topology, simulator: Simulator, *, seed: int = 0) -> None:
        self.topology = topology
        self.simulator = simulator
        self.hosts: dict[Address, Host] = {}
        self.stats = NetworkStats()
        self.on_drop: DropCallback | None = None
        # This stream only ever draws slow-path jitter normals, so the
        # buffered façade serves it from blocks (sequence-identical).
        self._rng = derive_buffered_rng(seed, "network")
        # Trails are pure functions of (src, dst[, pinned path]) over a
        # static topology; memoize them. Invalidated when hosts appear.
        self._trail_cache: dict[tuple, list[_Segment]] = {}

    # ------------------------------------------------------------- hosts

    def add_host(self, host: Host) -> Host:
        """Register ``host`` and attach it to this network."""
        if host.address in self.hosts:
            raise SimulationError(f"duplicate host address {host.address}")
        if host.address.asn not in self.topology.ases:
            raise SimulationError(f"host AS {host.address.asn} not in topology")
        self.hosts[host.address] = host
        host.attach(self)
        self.invalidate_routes()
        return host

    def make_host(self, asn: int, name: str, *, attachment: str = "interior", **kwargs) -> Host:
        """Create, register, and return a host in AS ``asn``."""
        host = Host(Address(asn, name), attachment=attachment, **kwargs)
        return self.add_host(host)

    # ------------------------------------------------------------ sending

    def invalidate_routes(self) -> None:
        """Flush memoized trails (topology or host set changed)."""
        self._trail_cache.clear()

    def send(self, packet: Packet, *, path: list[PathHop] | None = None) -> None:
        """Transmit ``packet`` now, along ``path`` or the shortest AS path."""
        self.stats.packets_sent += 1
        packet.send_time = now = self.simulator.now
        # A pinned path is keyed by value: the caller keeps its list.
        key = (
            (packet.src, packet.dst)
            if path is None
            else (packet.src, packet.dst, tuple(path))
        )
        trail = self._trail_cache.get(key)
        if trail is None:
            try:
                trail = self._build_trail(packet, path)
            except SimulationError:
                self._drop(packet, "unroutable")
                return
            self._trail_cache[key] = trail
        self._hop(packet, trail, 0, now)

    def _build_trail(self, packet: Packet, path: list[PathHop] | None) -> list[_Segment]:
        dst_host = self.hosts.get(packet.dst)
        if path is None:
            path = self.topology.shortest_path(packet.src.asn, packet.dst.asn)
        if not path or path[0].asn != packet.src.asn or path[-1].asn != packet.dst.asn:
            raise SimulationError("path does not join packet source and destination")

        src_host = self.hosts.get(packet.src)
        src_attachment = src_host.attachment if src_host else self._router_attachment(packet.src)
        dst_attachment = dst_host.attachment if dst_host else "interior"

        segments: list[_Segment] = []
        for channel, asys, interface in walk_path(
            self.topology, path, src_attachment, dst_attachment
        ):
            if interface is None:
                segments.append(_Segment(channel, host=dst_host))
            else:
                segments.append(_Segment(channel, router=asys.router(interface)))
        return segments

    def _router_attachment(self, address: Address) -> str:
        """Attachment point for router-originated packets (``brN`` hosts)."""
        if address.host.startswith("br"):
            return f"if{address.host[2:]}"
        return "interior"

    def _hop(self, packet: Packet, trail: list[_Segment], index: int, t: float) -> None:
        """``packet`` at the head of segment ``index`` at ``t``: out of the
        source when 0, else just arrived over segment ``index - 1``."""
        if index:
            router = trail[index - 1].router
            if router is not None:
                packet.ttl -= 1
                if packet.ttl <= 0:
                    self.stats.ttl_expiries += 1
                    self._handle_ttl_expiry(packet, router, t)
                    return
            if index == len(trail):
                self._deliver(packet, t)
                return
        outcome = trail[index].channel.transit(packet, t)
        if not outcome.delivered:
            self._drop(packet, outcome.drop_reason or "loss")
            return
        arrival = t + outcome.delay
        # Hop events are never cancelled: use the handle-free fast path.
        self.simulator.post(arrival, self._hop, packet, trail, index + 1, arrival)

    def _handle_ttl_expiry(self, packet: Packet, router: BorderRouter, t: float) -> None:
        """Drop the packet; maybe emit a slow-path ICMP time-exceeded."""
        self._drop(packet, "ttl_expired")
        if packet.protocol is Protocol.ICMP and packet.icmp_type in (
            IcmpType.TIME_EXCEEDED,
            IcmpType.DEST_UNREACHABLE,
        ):
            return  # never answer ICMP errors with ICMP errors
        if not router.allow_icmp_generation(t):
            return
        self.stats.icmp_generated += 1
        reply = Packet(
            src=router.address,
            dst=packet.src,
            protocol=Protocol.ICMP,
            size=56,
            seq=packet.seq,
            icmp_type=IcmpType.TIME_EXCEEDED,
            payload={
                "original_protocol": packet.protocol.name,
                "original_seq": packet.seq,
                "original_dst_port": packet.dst_port,
            },
        )
        # Control-plane punt: routers generate ICMP on the slow path.
        delay = router.slow_path_delay
        if router.slow_path_jitter:
            delay += abs(float(self._rng.normal(0.0, router.slow_path_jitter)))
        self.simulator.post(self.simulator.now + delay, self.send, reply)

    def _deliver(self, packet: Packet, t: float) -> None:
        host = self.hosts.get(packet.dst)
        if host is None:
            self._drop(packet, "no_such_host")
            return
        self.stats.packets_delivered += 1
        host.deliver(packet, t)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.stats.record_drop(reason)
        obs = self.simulator.obs
        if obs is not None:
            obs.metrics.counter("net_drops_total", reason=reason).inc()
        if self.on_drop is not None:
            self.on_drop(packet, reason, self.simulator.now)
