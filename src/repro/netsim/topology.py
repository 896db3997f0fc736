"""AS-level topology: autonomous systems, border routers, inter-domain links.

The Debuglet deployment model (§IV-B) co-locates executors with border
routers, identified by ``<AS number, inter-domain interface>`` pairs. This
module provides that addressing scheme: each :class:`AutonomousSystem` owns
numbered interfaces, each interface is one end of exactly one
:class:`~repro.netsim.conduit.Link` to a neighboring AS, and paths are
sequences of :class:`PathHop` entries naming the ingress and egress
interface of every on-path AS — the same granularity SCION exposes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, SimulationError
from repro.netsim.conduit import DirectedChannel, Link
from repro.netsim.congestion import CongestionProcess
from repro.netsim.packet import Address
from repro.netsim.treatment import TreatmentProfile

#: A border router's slow-path (control-plane punt) delay and its jitter,
#: in seconds; tests reassign a router's ``slow_path_*`` to vary them.
SLOW_PATH_DELAY = 2e-3
SLOW_PATH_JITTER = 1.5e-3


@dataclass(frozen=True, order=True)
class InterfaceId:
    """An inter-domain interface of one AS: ``<ASN, interface number>``."""

    asn: int
    interface: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.asn}#{self.interface}"


@dataclass(frozen=True)
class PathHop:
    """One AS on a forwarding path with its ingress/egress interfaces.

    ``ingress`` is ``None`` for the first hop (traffic originates inside
    the AS); ``egress`` is ``None`` for the last hop (traffic terminates
    inside the AS).
    """

    asn: int
    ingress: int | None
    egress: int | None


class BorderRouter:
    """The forwarding device at one inter-domain interface.

    Holds the knobs the traceroute baseline needs: whether the router
    answers TTL-exceeded at all, its ICMP-generation rate limit, and its
    slow-path processing delay (control-plane punt).
    """

    def __init__(
        self,
        interface_id: InterfaceId,
        *,
        ttl_exceeded_enabled: bool = True,
        icmp_rate_limit: float = 2.0,
    ) -> None:
        self.interface_id = interface_id
        self.ttl_exceeded_enabled = ttl_exceeded_enabled
        self.icmp_rate_limit = icmp_rate_limit
        self.slow_path_delay = SLOW_PATH_DELAY
        self.slow_path_jitter = SLOW_PATH_JITTER
        self._icmp_tokens = 1.0
        self._icmp_last_refill = 0.0

    @property
    def address(self) -> Address:
        """The router's own address (source of its ICMP messages)."""
        return Address(self.interface_id.asn, f"br{self.interface_id.interface}")

    def allow_icmp_generation(self, t: float) -> bool:
        """Token-bucket rate limiter for router-generated ICMP."""
        if not self.ttl_exceeded_enabled:
            return False
        if self.icmp_rate_limit <= 0:
            return False
        elapsed = t - self._icmp_last_refill
        burst = max(1.0, self.icmp_rate_limit)
        self._icmp_tokens = min(
            burst, self._icmp_tokens + elapsed * self.icmp_rate_limit
        )
        self._icmp_last_refill = t
        if self._icmp_tokens >= 1.0:
            self._icmp_tokens -= 1.0
            return True
        return False


class AutonomousSystem:
    """An AS: a set of border interfaces plus an internal network model.

    The interior is modelled as directed channels between interface pairs
    (and between interior hosts and interfaces), created on demand from the
    AS-level defaults. That is intentionally coarse: Debuglet treats AS
    interiors as opaque; only border-to-border behaviour matters for
    inter-domain fault localization.
    """

    def __init__(
        self,
        asn: int,
        *,
        name: str = "",
        internal_delay: float = 1e-3,
        internal_jitter: float = 0.05e-3,
        congestion: CongestionProcess | None = None,
        seed: int = 0,
    ) -> None:
        if asn <= 0:
            raise ConfigurationError(f"ASN must be positive, got {asn}")
        self.asn = asn
        self.name = name or f"AS{asn}"
        self.internal_delay = internal_delay
        self.internal_jitter = internal_jitter
        self.treatment = TreatmentProfile.uniform()
        self.congestion = congestion
        self.seed = seed
        self.routers: dict[int, BorderRouter] = {}
        self._internal_channels: dict[tuple[str, str], DirectedChannel] = {}

    def add_interface(self, interface: int, **router_kwargs) -> BorderRouter:
        """Register inter-domain interface ``interface`` on this AS."""
        if interface in self.routers:
            raise ConfigurationError(
                f"interface {interface} already exists on AS {self.asn}"
            )
        router = BorderRouter(InterfaceId(self.asn, interface), **router_kwargs)
        self.routers[interface] = router
        return router

    def router(self, interface: int) -> BorderRouter:
        if interface not in self.routers:
            raise SimulationError(f"AS {self.asn} has no interface {interface}")
        return self.routers[interface]

    def internal_channel(self, src: str, dst: str) -> DirectedChannel:
        """The interior channel between two attachment points.

        Attachment points are strings: ``"if<N>"`` for border interfaces or
        a host identifier for interior hosts. Channels are memoized so the
        Lindley queue state persists across packets.
        """
        key = (src, dst)
        channel = self._internal_channels.get(key)
        if channel is None:
            channel = DirectedChannel(
                f"AS{self.asn}/{src}->{dst}",
                base_delay=self.internal_delay if src != dst else 0.0,
                jitter_std=self.internal_jitter,
                treatment=self.treatment,
                congestion=self.congestion,
                seed=self.seed,
            )
            self._internal_channels[key] = channel
        return channel

    def interior_attachment(self) -> str:
        """The attachment-point label for hosts in the AS interior."""
        return "interior"


class Topology:
    """The inter-domain graph: ASes joined by links between interfaces."""

    def __init__(self) -> None:
        self.ases: dict[int, AutonomousSystem] = {}
        # Keyed by the ``(asn, interface)`` on either end — plain ints, so a
        # lookup builds and hashes no ``InterfaceId``; the flag says whether
        # ``link.forward`` carries the traffic *leaving* that interface.
        self._links: dict[tuple[int, int], tuple[Link, InterfaceId, bool]] = {}
        # The vectorized path's per-``(protocol, probe size)`` stage tables
        # (:class:`repro.netsim.fastpath.StageTable`): kept here, beside the
        # channels they were read from, so every prober over this topology
        # shares them.
        self.stage_tables: dict = {}

    def add_as(self, autonomous_system: AutonomousSystem) -> AutonomousSystem:
        if autonomous_system.asn in self.ases:
            raise ConfigurationError(f"AS {autonomous_system.asn} already exists")
        self.ases[autonomous_system.asn] = autonomous_system
        return autonomous_system

    def make_as(self, asn: int, **kwargs) -> AutonomousSystem:
        """Create, register, and return a new AS."""
        return self.add_as(AutonomousSystem(asn, **kwargs))

    def autonomous_system(self, asn: int) -> AutonomousSystem:
        if asn not in self.ases:
            raise SimulationError(f"unknown AS {asn}")
        return self.ases[asn]

    def connect(
        self,
        asn_a: int,
        interface_a: int,
        asn_b: int,
        interface_b: int,
        link: Link,
    ) -> Link:
        """Join two AS interfaces with ``link``.

        ``link.forward`` carries a→b traffic, ``link.reverse`` b→a. Each
        interface is created on its AS if it does not exist yet.
        """
        as_a = self.autonomous_system(asn_a)
        as_b = self.autonomous_system(asn_b)
        if interface_a not in as_a.routers:
            as_a.add_interface(interface_a)
        if interface_b not in as_b.routers:
            as_b.add_interface(interface_b)
        ifid_a = InterfaceId(asn_a, interface_a)
        ifid_b = InterfaceId(asn_b, interface_b)
        for ifid in (ifid_a, ifid_b):
            if (ifid.asn, ifid.interface) in self._links:
                raise ConfigurationError(f"interface {ifid} is already linked")
        self._links[(asn_a, interface_a)] = (link, ifid_b, True)
        self._links[(asn_b, interface_b)] = (link, ifid_a, False)
        return link

    def link_at(self, ifid: InterfaceId) -> tuple[Link, InterfaceId]:
        """The link attached at ``ifid`` and the interface at the far end."""
        entry = self._links.get((ifid.asn, ifid.interface))
        if entry is None:
            raise SimulationError(f"no link at interface {ifid}")
        return entry[0], entry[1]

    def channel_between(self, src: InterfaceId, dst: InterfaceId) -> DirectedChannel:
        """The directed channel carrying traffic from ``src`` to ``dst``."""
        return self.link_channel(src.asn, src.interface, dst.asn, dst.interface)

    def link_channel(
        self, asn: int, interface: int, peer_asn: int, peer_interface: int
    ) -> DirectedChannel:
        """:meth:`channel_between` for callers that hold plain numbers: the
        channel from ``<asn, interface>`` to ``<peer_asn, peer_interface>``."""
        entry = self._links.get((asn, interface))
        if entry is None:
            raise SimulationError(f"no link at interface {asn}#{interface}")
        link, peer, forward = entry
        if peer.asn != peer_asn or peer.interface != peer_interface:
            raise SimulationError(
                f"{asn}#{interface} is linked to {peer}, "
                f"not {peer_asn}#{peer_interface}"
            )
        return link.forward if forward else link.reverse

    def neighbors(self, asn: int) -> list[tuple[int, int, int]]:
        """Adjacent ASes as ``(egress_interface, peer_asn, peer_interface)``."""
        result = []
        for interface in sorted(self.autonomous_system(asn).routers):
            entry = self._links.get((asn, interface))
            if entry is not None:
                peer = entry[1]
                result.append((interface, peer.asn, peer.interface))
        return result

    def shortest_path(self, src_asn: int, dst_asn: int) -> list[PathHop]:
        """BFS over the AS graph, returning interface-level hops.

        Deterministic: neighbors are explored in sorted interface order, so
        equal-length paths resolve identically across runs.
        """
        if src_asn == dst_asn:
            return [PathHop(src_asn, None, None)]
        # BFS storing the (egress, peer, peer_ingress) trail.
        visited = {src_asn}
        queue: deque[tuple[int, list[tuple[int, int, int, int]]]] = deque()
        queue.append((src_asn, []))
        while queue:
            asn, trail = queue.popleft()
            for egress, peer_asn, peer_ingress in self.neighbors(asn):
                if peer_asn in visited:
                    continue
                new_trail = trail + [(asn, egress, peer_asn, peer_ingress)]
                if peer_asn == dst_asn:
                    return _trail_to_hops(src_asn, dst_asn, new_trail)
                visited.add(peer_asn)
                queue.append((peer_asn, new_trail))
        raise SimulationError(f"no path from AS {src_asn} to AS {dst_asn}")

    def interface_pairs_on_path(self, path: list[PathHop]) -> list[tuple[InterfaceId, InterfaceId]]:
        """The inter-domain (egress, ingress) interface pairs along ``path``."""
        pairs = []
        for hop, nxt in zip(path, path[1:]):
            if hop.egress is None or nxt.ingress is None:
                raise SimulationError("interior hop in the middle of a path")
            pairs.append(
                (InterfaceId(hop.asn, hop.egress), InterfaceId(nxt.asn, nxt.ingress))
            )
        return pairs


def _trail_to_hops(
    src_asn: int, dst_asn: int, trail: list[tuple[int, int, int, int]]
) -> list[PathHop]:
    hops: list[PathHop] = []
    ingress: int | None = None
    for asn, egress, peer_asn, peer_ingress in trail:
        hops.append(PathHop(asn, ingress, egress))
        ingress = peer_ingress
    hops.append(PathHop(dst_asn, ingress, None))
    return hops
