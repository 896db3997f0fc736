"""The traceroute baseline: TTL-sweep path discovery.

Reproduces the two §II limitations the paper calls out:

1. routers may have TTL-exceeded generation *disabled or rate-limited*,
   leaving ``* * *`` holes in the output;
2. routers answer on the *slow path* (control-plane punt), so the RTT a
   traceroute hop reports does not reflect what data packets experience.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.endhost import Host
from repro.netsim.packet import Address, IcmpType, Packet

#: Seconds a probe may go unanswered before its hop reads ``*``.
PROBE_TIMEOUT = 2.0


@dataclass
class TracerouteHop:
    """One TTL's outcome. ``responder`` is ``None`` on timeout (``*``)."""

    ttl: int
    responder: Address | None
    rtt: float | None
    reached_destination: bool = False


@dataclass
class TracerouteResult:
    hops: list[TracerouteHop] = field(default_factory=list)

    @property
    def responding_hops(self) -> int:
        return sum(1 for hop in self.hops if hop.responder is not None)

    @property
    def silent_hops(self) -> int:
        return sum(1 for hop in self.hops if hop.responder is None)

    def destination_reached(self) -> bool:
        return any(hop.reached_destination for hop in self.hops)


class Traceroute:
    """ICMP-probe traceroute over the simulator.

    Sends ``probes_per_hop`` echo requests per TTL, spaced ``probe_gap``
    apart; routers answer with (rate-limited, slow-path) time-exceeded
    messages, the destination with an echo reply.
    """

    def __init__(
        self,
        client: Host,
        target: Address,
        *,
        max_ttl: int = 16,
        probes_per_hop: int = 1,
        probe_gap: float = 0.2,
    ) -> None:
        self.client = client
        self.target = target
        self.max_ttl = max_ttl
        self.probes_per_hop = probes_per_hop
        self.probe_gap = probe_gap
        self.result = TracerouteResult()
        self._socket = client.open_icmp()
        self._socket.on_receive = self._on_reply
        self._sent: dict[int, tuple[int, float]] = {}  # seq -> (ttl, sent_at)
        self._answered: set[int] = set()
        self._seq = 0
        self._schedule_probes()

    def _schedule_probes(self) -> None:
        sim = self.client.network.simulator
        t = sim.now
        for ttl in range(1, self.max_ttl + 1):
            for _ in range(self.probes_per_hop):
                self._seq += 1
                seq = self._seq
                sim.schedule_at(t, self._send_probe, ttl, seq)
                t += self.probe_gap
        sim.schedule_at(t + PROBE_TIMEOUT, self._finalize)

    def _send_probe(self, ttl: int, seq: int) -> None:
        self._sent[seq] = (ttl, self.client.network.simulator.now)
        self._socket.send(
            self.target,
            size=64,
            seq=seq,
            ttl=ttl,
            icmp_type=IcmpType.ECHO_REQUEST,
        )

    def _on_reply(self, packet: Packet, t: float) -> None:
        if packet.icmp_type not in (IcmpType.TIME_EXCEEDED, IcmpType.ECHO_REPLY):
            return
        seq = packet.seq
        if packet.icmp_type is IcmpType.TIME_EXCEEDED and isinstance(packet.payload, dict):
            seq = packet.payload.get("original_seq", seq)
        sent = self._sent.get(seq)
        if sent is None or seq in self._answered:
            return
        ttl, sent_at = sent
        if t - sent_at > PROBE_TIMEOUT:
            return
        self._answered.add(seq)
        self.result.hops.append(
            TracerouteHop(
                ttl=ttl,
                responder=packet.src,
                rtt=t - sent_at,
                reached_destination=packet.icmp_type is IcmpType.ECHO_REPLY,
            )
        )

    def _finalize(self) -> None:
        for seq, (ttl, _) in sorted(self._sent.items()):
            if seq not in self._answered:
                self.result.hops.append(TracerouteHop(ttl=ttl, responder=None, rtt=None))
        self.result.hops.sort(key=lambda hop: hop.ttl)
        self._socket.close()


def traceroute_sync(client: Host, target: Address, **kwargs) -> TracerouteResult:
    """Run a traceroute to completion and return its result."""
    tracer = Traceroute(client, target, **kwargs)
    client.network.simulator.run_until_idle()
    return tracer.result
