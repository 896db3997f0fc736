"""The record-list ``MeasurementTrace`` that the columnar one replaced.

Kept verbatim below the ``# ---- reference ----`` line — one
``ProbeRecord`` dataclass per probe, every statistic a pass over the list
— as the oracle for ``repro.netsim.trace``, together with the two
event-driven trains that filled it (``ProbeTrain``, ``OneWayProbeTrain``;
the one-way train still leaks its sockets, as it did).
``tests/properties/test_prop_trace_columns.py`` builds both traces from the
same probes and requires every statistic, ``summary()`` and per-probe view
to be equal with ``==``; ``tests/netsim/test_trace.py`` runs the same
event-driven study with these trains and with ``repro.netsim.traffic``'s
and requires the columns to equal these records. Never edit the
arithmetic: bit-identity with this code is the contract the columns are
held to.
"""

from __future__ import annotations

# ---- reference ----

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.netsim.endhost import Host
from repro.netsim.network import Network
from repro.netsim.packet import Address, IcmpType, Packet, Protocol
from repro.netsim.topology import PathHop
from repro.netsim.traffic import DEFAULT_PROBE_SIZE


@dataclass
class ProbeRecord:
    """One probe's fate. ``rtt`` is ``None`` when the probe was lost."""

    seq: int
    send_time: float
    rtt: float | None = None
    receive_time: float | None = None

    @property
    def lost(self) -> bool:
        return self.rtt is None


@dataclass
class MeasurementTrace:
    """An ordered collection of probe records for one (pair, protocol)."""

    protocol: Protocol
    label: str = ""
    records: list[ProbeRecord] = field(default_factory=list)

    def add(self, record: ProbeRecord) -> None:
        self.records.append(record)

    @classmethod
    def from_arrays(
        cls,
        protocol: Protocol,
        send_times: np.ndarray,
        rtts: np.ndarray,
        *,
        label: str = "",
    ) -> "MeasurementTrace":
        """Build a trace from vectorized results (``NaN`` rtt = lost).

        Probes are numbered 1..N in array order, matching what a
        :class:`~repro.netsim.traffic.ProbeTrain` would have produced for
        the same schedule.
        """
        records = [
            ProbeRecord(
                seq=index + 1,
                send_time=float(send),
                rtt=None if lost else float(rtt),
                receive_time=None if lost else float(send + rtt),
            )
            for index, (send, rtt, lost) in enumerate(
                zip(send_times, rtts, np.isnan(rtts))
            )
        ]
        return cls(protocol, label=label, records=records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def sent(self) -> int:
        return len(self.records)

    @property
    def lost(self) -> int:
        return sum(1 for record in self.records if record.lost)

    @property
    def received(self) -> int:
        return self.sent - self.lost

    def loss_rate(self) -> float:
        """Fraction of probes lost, in [0, 1]."""
        if not self.records:
            return 0.0
        return self.lost / self.sent

    def loss_per_mille(self) -> float:
        """Loss in the paper's per-thousandths (‰) unit."""
        return self.loss_rate() * 1000.0

    def rtts(self) -> np.ndarray:
        """Round-trip times of received probes, in seconds."""
        return np.array(
            [record.rtt for record in self.records if record.rtt is not None]
        )

    def rtts_ms(self) -> np.ndarray:
        return self.rtts() * 1e3

    def mean_rtt_ms(self) -> float:
        values = self.rtts_ms()
        return float(values.mean()) if values.size else float("nan")

    def std_rtt_ms(self) -> float:
        values = self.rtts_ms()
        return float(values.std(ddof=1)) if values.size > 1 else 0.0

    def percentile_ms(self, q: float) -> float:
        values = self.rtts_ms()
        return float(np.percentile(values, q)) if values.size else float("nan")

    def time_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(send_time, rtt_ms) arrays for received probes — Fig 1–3 data."""
        times = [r.send_time for r in self.records if r.rtt is not None]
        rtts = [r.rtt * 1e3 for r in self.records if r.rtt is not None]
        return np.array(times), np.array(rtts)

    def summary(self) -> dict:
        """The Table I cell for this trace."""
        return {
            "protocol": self.protocol.name,
            "label": self.label,
            "sent": self.sent,
            "received": self.received,
            "mean_ms": self.mean_rtt_ms(),
            "std_ms": self.std_rtt_ms(),
            "loss_per_mille": self.loss_per_mille(),
        }


class ProbeTrain:
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
        timeout: float = 5.0,
        src_port: int = 0,
        dst_port: int = 7,
        path: list[PathHop] | None = None,
        label: str = "",
    ) -> None:
        if count <= 0:
            raise ConfigurationError("probe count must be positive")
        if interval <= 0:
            raise ConfigurationError("probe interval must be positive")
        self.client = client
        self.server = server
        self.protocol = protocol
        self.count = count
        self.interval = interval
        self.size = size
        self.start = client.network.simulator.now if start is None else start
        self.timeout = timeout
        self.path = path
        self.trace = MeasurementTrace(protocol, label=label)
        self._pending: dict[int, ProbeRecord] = {}
        self._next_seq = 1

        if protocol in (Protocol.UDP, Protocol.TCP):
            if src_port <= 0:
                raise ConfigurationError("UDP/TCP probe train needs src_port")
            self._socket = client.open_socket(protocol, src_port)
            self._dst_port = dst_port
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
        seq = self._next_seq
        self._next_seq += 1
        record = ProbeRecord(seq=seq, send_time=self.network.simulator.now)
        self._pending[seq] = record
        self.trace.add(record)
        icmp_type = IcmpType.ECHO_REQUEST if self.protocol is Protocol.ICMP else None
        self._socket.send(
            self.server,
            dst_port=self._dst_port,
            size=self.size,
            seq=seq,
            path=self.path,
            icmp_type=icmp_type,
        )

    def _on_reply(self, packet: Packet, t: float) -> None:
        if packet.protocol is Protocol.ICMP and packet.icmp_type is not IcmpType.ECHO_REPLY:
            return  # e.g. stray time-exceeded messages
        record = self._pending.pop(packet.seq, None)
        if record is None:
            return  # duplicate or late reply
        if t - record.send_time > self.timeout:
            return  # reply after timeout counts as loss
        record.receive_time = t
        record.rtt = t - record.send_time

    def finalize(self) -> MeasurementTrace:
        """Mark unanswered probes as lost, release the socket, and return
        the trace."""
        self._pending.clear()
        self._socket.close()
        return self.trace


class OneWayProbeTrain:
    """Unidirectional probes: sender timestamps, receiver records arrivals.

    Requires the receiver to bind the probe port (no echo involved), which
    is what a Debuglet *server* application does. With the simulator's
    global clock, one-way delay is exact — standing in for the synchronized
    clocks the paper assumes between executors.
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
        self.protocol = protocol
        self.count = count
        self.interval = interval
        self.size = size
        self.start = client.network.simulator.now if start is None else start
        self.path = path
        self.trace = MeasurementTrace(protocol, label=label)
        self._records: dict[int, ProbeRecord] = {}
        self._server_socket.on_receive = self._on_arrival
        for i in range(count):
            client.network.simulator.post(
                self.start + i * interval, self._send_one, i + 1
            )

    def _send_one(self, seq: int) -> None:
        record = ProbeRecord(seq=seq, send_time=self.client.network.simulator.now)
        self._records[seq] = record
        self.trace.add(record)
        self._client_socket.send(
            self.server.address,
            dst_port=self._dst_port,
            size=self.size,
            seq=seq,
            path=self.path,
        )

    def _on_arrival(self, packet: Packet, t: float) -> None:
        record = self._records.pop(packet.seq, None)
        if record is None:
            return
        record.receive_time = t
        record.rtt = t - record.send_time  # one-way delay stored in rtt slot

    def finalize(self) -> MeasurementTrace:
        self._records.clear()
        return self.trace
