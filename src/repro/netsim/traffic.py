"""Probe traffic generators.

:class:`ProbeTrain` reproduces the paper's measurement clients: a steady
train of fixed-size probes of one protocol toward an echo responder, with
replies matched by sequence number. :class:`MultiProtocolProber` runs the
§II experiment — one train per protocol between the same host pair, with
identical layer-3 packet lengths. :class:`OneWayProbeTrain` supports
Debuglet's unidirectional measurements (§III), where the receiver records
arrival times instead of echoing.
"""

from __future__ import annotations

import math

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.netsim.endhost import Host
from repro.netsim.network import Network
from repro.netsim.packet import (
    ECHO_PORT,
    PROBE_TIMEOUT,
    Address,
    IcmpType,
    Packet,
    Protocol,
)
from repro.netsim.topology import PathHop
from repro.netsim.trace import MeasurementTrace

#: Probe size used when a train does not specify one (layer-3 total bytes).
DEFAULT_PROBE_SIZE = 64


class _ColumnTrain:
    """What both trains share: the schedule checks and the trace columns.

    As probe ``seq`` leaves, its send instant is appended (so ``seq`` is
    its position + 1) and its rtt slot starts as ``NaN``; an answer writes
    slot ``seq - 1``. ``_pending`` maps each unanswered ``seq`` to its send
    instant.
    """

    def __init__(
        self, protocol: Protocol, *, count: int, interval: float, label: str
    ) -> None:
        if count <= 0:
            raise ConfigurationError("probe count must be positive")
        if interval <= 0:
            raise ConfigurationError("probe interval must be positive")
        self.protocol = protocol
        self.count = count
        self.interval = interval
        self.label = label
        self._send_times: list[float] = []
        self._rtts: list[float] = []
        self._pending: dict[int, float] = {}

    def _sending(self, now: float) -> int:
        """Record a probe leaving at ``now``; returns its sequence number."""
        self._send_times.append(now)
        self._rtts.append(math.nan)
        seq = len(self._send_times)
        self._pending[seq] = now
        return seq

    @property
    def trace(self) -> MeasurementTrace:
        """The probes sent so far; unanswered ones read as lost."""
        return MeasurementTrace(
            self.protocol, self._send_times, self._rtts, label=self.label
        )


class ProbeTrain(_ColumnTrain):
    """Send ``count`` probes at ``interval`` seconds and match echo replies.

    The destination host's stack must echo this protocol (see
    ``Host.echo_protocols``). ``finalize()`` marks probes that never got a
    reply within ``timeout`` as lost and returns the trace.
    """

    def __init__(
        self,
        client: Host,
        server: Address,
        protocol: Protocol,
        *,
        count: int,
        interval: float = 1.0,
        size: int = DEFAULT_PROBE_SIZE,
        start: float | None = None,
        src_port: int = 0,
        label: str = "",
    ) -> None:
        super().__init__(protocol, count=count, interval=interval, label=label)
        self.client = client
        self.server = server
        self.size = size
        self.start = client.network.simulator.now if start is None else start

        if protocol in (Protocol.UDP, Protocol.TCP):
            if src_port <= 0:
                raise ConfigurationError("UDP/TCP probe train needs src_port")
            self._socket = client.open_socket(protocol, src_port)
            self._dst_port = ECHO_PORT
        else:
            self._socket = client.open_socket(protocol, 0)
            self._dst_port = 0
        self._socket.on_receive = self._on_reply
        self._schedule_all()

    @property
    def network(self) -> Network:
        return self.client.network

    def _schedule_all(self) -> None:
        post = self.network.simulator.post
        for i in range(self.count):
            post(self.start + i * self.interval, self._send_one)

    def _send_one(self) -> None:
        seq = self._sending(self.network.simulator.now)
        icmp_type = IcmpType.ECHO_REQUEST if self.protocol is Protocol.ICMP else None
        self._socket.send(
            self.server,
            dst_port=self._dst_port,
            size=self.size,
            seq=seq,
            icmp_type=icmp_type,
        )

    def _on_reply(self, packet: Packet, t: float) -> None:
        if packet.protocol is Protocol.ICMP and packet.icmp_type is not IcmpType.ECHO_REPLY:
            return  # e.g. stray time-exceeded messages
        send_time = self._pending.pop(packet.seq, None)
        if send_time is None:
            return  # duplicate or late reply
        if t - send_time > PROBE_TIMEOUT:
            return  # reply after timeout counts as loss
        self._rtts[packet.seq - 1] = t - send_time

    def finalize(self) -> MeasurementTrace:
        """Mark unanswered probes as lost, release the socket, and return
        the trace."""
        self._pending.clear()
        self._socket.close()
        return self.trace


class MultiProtocolProber:
    """The §II experiment: concurrent probe trains for all four protocols.

    All trains share the destination, probe size, and schedule, so any
    performance difference is attributable to protocol treatment alone —
    exactly the paper's experimental control.
    """

    PROTOCOLS = (Protocol.UDP, Protocol.TCP, Protocol.ICMP, Protocol.RAW_IP)
    #: Train ``i`` (in :attr:`PROTOCOLS` order) starts ``i * STAGGER`` s
    #: after the first and sends from port ``BASE_PORT + i``.
    STAGGER = 0.01
    BASE_PORT = 40000

    def __init__(
        self,
        client: Host,
        server: Address,
        *,
        count: int,
        interval: float = 1.0,
        size: int = DEFAULT_PROBE_SIZE,
        start: float | None = None,
        label: str = "",
    ) -> None:
        if start is None:
            start = client.network.simulator.now
        self.trains: dict[Protocol, ProbeTrain] = {}
        for index, protocol in enumerate(self.PROTOCOLS):
            self.trains[protocol] = ProbeTrain(
                client,
                server,
                protocol,
                count=count,
                interval=interval,
                size=size,
                start=start + index * self.STAGGER,
                src_port=self.BASE_PORT + index,
                label=f"{label}/{protocol.name}" if label else protocol.name,
            )

    def finalize(self) -> dict[Protocol, MeasurementTrace]:
        return {proto: train.finalize() for proto, train in self.trains.items()}


class OneWayProbeTrain(_ColumnTrain):
    """Unidirectional probes: sender timestamps, receiver records arrivals.

    Requires the receiver to bind the probe port (no echo involved), which
    is what a Debuglet *server* application does. With the simulator's
    global clock, one-way delay is exact — standing in for the synchronized
    clocks the paper assumes between executors. The delay is stored in the
    trace's rtt column; ``finalize()`` releases both sockets.
    """

    def __init__(
        self,
        client: Host,
        server: Host,
        protocol: Protocol,
        *,
        count: int,
        interval: float = 1.0,
        size: int = DEFAULT_PROBE_SIZE,
        start: float | None = None,
        src_port: int = 41000,
        dst_port: int = 42000,
        path: list[PathHop] | None = None,
        label: str = "",
    ) -> None:
        super().__init__(protocol, count=count, interval=interval, label=label)
        if protocol in (Protocol.UDP, Protocol.TCP):
            self._client_socket = client.open_socket(protocol, src_port)
            self._server_socket = server.open_socket(protocol, dst_port)
            self._dst_port = dst_port
        else:
            self._client_socket = client.open_socket(protocol, 0)
            self._server_socket = server.open_socket(protocol, 0)
            self._dst_port = 0
        self.client = client
        self.server = server
        self.size = size
        self.start = client.network.simulator.now if start is None else start
        self.path = path
        self._server_socket.on_receive = self._on_arrival
        for i in range(count):
            client.network.simulator.post(self.start + i * interval, self._send_one)

    def _send_one(self) -> None:
        seq = self._sending(self.client.network.simulator.now)
        self._client_socket.send(
            self.server.address,
            dst_port=self._dst_port,
            size=self.size,
            seq=seq,
            path=self.path,
        )

    def _on_arrival(self, packet: Packet, t: float) -> None:
        send_time = self._pending.pop(packet.seq, None)
        if send_time is None:
            return
        self._rtts[packet.seq - 1] = t - send_time  # one-way delay

    def finalize(self) -> MeasurementTrace:
        """Mark probes that never arrived as lost, release both sockets, and
        return the trace."""
        self._pending.clear()
        self._client_socket.close()
        self._server_socket.close()
        return self.trace


#: Day-period swing of a background-loaded channel's utilization; the
#: background load has no bursts.
DIURNAL_AMPLITUDE = 0.04


class TrafficMatrix:
    """A gravity-model background traffic matrix over an Internet topology.

    Demand endpoints are drawn with probability proportional to AS degree
    (the gravity model: big transit providers source and sink the most
    traffic), each demand gets an exponential intensity, and every demand
    is routed over the topology's Gao-Rexford policy path. The per-channel
    load accumulated that way is converted into a base utilization and
    installed as each loaded channel's :class:`CongestionProcess` by
    :meth:`apply` — after which probes crossing hot links really do see
    queueing delay and, past the drop threshold, congestion loss.

    Deterministic: demands, routes, and the installed congestion processes
    are pure functions of ``(topology, seed, parameters)``.
    """

    def __init__(
        self,
        topology,
        *,
        seed: int = 0,
        demands_per_as: float = 2.0,
        utilization_floor: float = 0.05,
        utilization_scale: float = 0.06,
        utilization_cap: float = 0.92,
    ) -> None:
        self.topology = topology
        self.seed = seed
        self.utilization_floor = utilization_floor
        self.utilization_scale = utilization_scale
        self.utilization_cap = utilization_cap
        self.applied = 0

        ases = sorted(topology.ases)
        n = len(ases)
        rng = derive_rng(seed, "traffic", "demands")
        import numpy as np

        weights = np.array([topology.degree(a) for a in ases], dtype=float)
        weights /= weights.sum()
        k = max(1, int(demands_per_as * n))
        src_idx = rng.choice(n, size=k, p=weights)
        dst_idx = rng.choice(n, size=k, p=weights)
        intensities = rng.exponential(1.0, size=k)

        #: Accumulated load per directed AS-level edge ``(a, b)``.
        self.channel_load: dict[tuple[int, int], float] = {}
        self.demands: list[tuple[int, int, float]] = []
        # Route demands grouped by destination: the router is handed the
        # distinct sinks in the order they come up and computes their
        # trees a batch at a time, so every path below finds its tree in
        # the router's LRU.
        order = sorted(range(k), key=lambda i: (int(dst_idx[i]), int(src_idx[i]), i))
        by_sink: dict[int, list[tuple[int, float]]] = {}
        for i in order:
            src, dst = ases[int(src_idx[i])], ases[int(dst_idx[i])]
            if src == dst:
                continue
            intensity = float(intensities[i])
            self.demands.append((src, dst, intensity))
            by_sink.setdefault(dst, []).append((src, intensity))
        for tree in topology.router.trees(by_sink):
            for src, intensity in by_sink[tree.dst]:
                asns = topology.policy_segment_asns(src, tree.dst)
                for a, b in zip(asns, asns[1:]):
                    self.channel_load[(a, b)] = (
                        self.channel_load.get((a, b), 0.0) + intensity
                    )

    def utilization_of(self, a: int, b: int) -> float:
        """The base utilization installed on the a→b channel."""
        load = self.channel_load.get((a, b), 0.0)
        if load <= 0.0:
            return self.utilization_floor
        return min(
            self.utilization_cap,
            self.utilization_floor + self.utilization_scale * load,
        )

    def apply(self) -> int:
        """Install load-derived congestion on every loaded channel.

        Returns the number of directed channels reconfigured.
        """
        from repro.common.rng import derive_seed
        from repro.netsim.congestion import CongestionConfig, CongestionProcess
        from repro.netsim.topology import InterfaceId

        topology = self.topology
        count = 0
        for (a, b) in sorted(self.channel_load):
            if_a = topology.interface_on[(a, b)]
            if_b = topology.interface_on[(b, a)]
            channel = topology.channel_between(
                InterfaceId(a, if_a), InterfaceId(b, if_b)
            )
            config = CongestionConfig(
                base_utilization=self.utilization_of(a, b),
                diurnal_amplitude=DIURNAL_AMPLITUDE,
                burst_rate=0.0,
            )
            channel.congestion = CongestionProcess(
                config,
                seed=derive_seed(self.seed, "traffic", a, b),
                label="background",
            )
            count += 1
        self.applied = count
        return count
