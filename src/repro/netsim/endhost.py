"""End hosts and their sockets.

Hosts attach to an AS at a named attachment point — either co-located with
a border interface (``"if<N>"``, where Debuglet executors live) or in the
AS interior (``"interior"``, where ordinary endpoints live). Sockets give
measurement applications the paper's four probe protocols with a uniform
send/receive interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import ConfigurationError, SimulationError
from repro.netsim.packet import Address, IcmpType, Packet, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.network import Network
    from repro.netsim.topology import PathHop

ReceiveCallback = Callable[[Packet, float], None]


class Socket:
    """A bound endpoint for one protocol (and, for UDP/TCP, one port)."""

    def __init__(self, host: "Host", protocol: Protocol, port: int = 0) -> None:
        self.host = host
        self.protocol = protocol
        self.port = port
        self.on_receive: ReceiveCallback | None = None
        self.received: list[tuple[Packet, float]] = []
        self.sent_count = 0
        self.closed = False

    def send(
        self,
        dst: Address,
        *,
        dst_port: int = 0,
        size: int = 64,
        seq: int = 0,
        payload: Any = None,
        ttl: int = 64,
        path: "list[PathHop] | None" = None,
        icmp_type: IcmpType | None = None,
    ) -> Packet:
        """Build and transmit a packet; returns it (send_time filled in)."""
        if self.closed:
            raise SimulationError("socket is closed")
        packet = Packet(
            src=self.host.address,
            dst=dst,
            protocol=self.protocol,
            size=size,
            src_port=self.port,
            dst_port=dst_port,
            seq=seq,
            ttl=ttl,
            payload=payload,
            icmp_type=icmp_type,
        )
        self.host.network.send(packet, path=path)
        self.sent_count += 1
        return packet

    def deliver(self, packet: Packet, t: float) -> None:
        """Called by the host stack when a matching packet arrives."""
        if self.closed:
            return
        if self.on_receive is not None:
            self.on_receive(packet, t)
        else:
            self.received.append((packet, t))

    def close(self) -> None:
        self.closed = True
        self.host._remove_socket(self)


class Host:
    """A network endpoint attached to one AS.

    ``echo_protocols`` lists the protocols the host's stack answers
    automatically with an echo reply (swapped src/dst, same seq) — the
    behaviour of the paper's Go echo server, plus the kernel's native ICMP
    echo handling.
    """

    def __init__(
        self,
        address: Address,
        *,
        attachment: str = "interior",
        echo_protocols: tuple[Protocol, ...] = (Protocol.ICMP,),
    ) -> None:
        self.address = address
        self.attachment = attachment
        self.echo_protocols = set(echo_protocols)
        self._network: "Network | None" = None
        self._sockets: dict[tuple[Protocol, int], Socket] = {}
        self.dropped_deliveries = 0

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise ConfigurationError(f"host {self.address} is not attached")
        return self._network

    def attach(self, network: "Network") -> None:
        self._network = network

    def open_socket(self, protocol: Protocol, port: int = 0) -> Socket:
        """Bind a socket. UDP/TCP require a port; ICMP/raw use port 0."""
        if protocol in (Protocol.UDP, Protocol.TCP) and port <= 0:
            raise ConfigurationError(f"{protocol.name} socket requires a port")
        key = (protocol, port)
        if key in self._sockets:
            raise ConfigurationError(
                f"{protocol.name} port {port} already bound on {self.address}"
            )
        sock = Socket(self, protocol, port)
        self._sockets[key] = sock
        return sock

    def open_udp(self, port: int) -> Socket:
        return self.open_socket(Protocol.UDP, port)

    def open_tcp(self, port: int) -> Socket:
        return self.open_socket(Protocol.TCP, port)

    def open_icmp(self) -> Socket:
        return self.open_socket(Protocol.ICMP, 0)

    def open_raw(self) -> Socket:
        return self.open_socket(Protocol.RAW_IP, 0)

    def _remove_socket(self, sock: Socket) -> None:
        self._sockets.pop((sock.protocol, sock.port), None)

    def deliver(self, packet: Packet, t: float) -> None:
        """Host stack demultiplexing, mirroring kernel behaviour.

        Called by the network, which delivers only to attached hosts.
        """
        # Automatic echo for configured protocols (ICMP echo by default;
        # for ICMP, only an echo request is answered).
        protocol = packet.protocol
        if protocol in self.echo_protocols and (
            protocol is not Protocol.ICMP
            or packet.icmp_type is IcmpType.ECHO_REQUEST
        ):
            self._network.send(packet.reply_to(payload=packet.payload))
            # ICMP echo requests are fully consumed by the stack; other
            # protocols still reach any bound socket (an app may observe).
            if protocol is Protocol.ICMP:
                self._deliver_to_socket(packet, t, quiet=True)
                return
        self._deliver_to_socket(packet, t, quiet=False)

    def _deliver_to_socket(self, packet: Packet, t: float, *, quiet: bool) -> None:
        key = (packet.protocol, packet.dst_port)
        sock = self._sockets.get(key)
        if sock is None and packet.protocol in (Protocol.ICMP, Protocol.RAW_IP):
            sock = self._sockets.get((packet.protocol, 0))
        if sock is not None:
            sock.deliver(packet, t)
        elif not quiet:
            self.dropped_deliveries += 1
