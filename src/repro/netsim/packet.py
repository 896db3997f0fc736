"""Packets, protocols, and addressing.

Protocols mirror the paper's motivation experiment (§II): UDP, TCP (no
special flags, random sequence numbers), ICMP echo, and custom raw IP with
the unassigned protocol number 201. All probe packets in an experiment share
the same total layer-3 length, as the paper's measurement applications do.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count
from typing import Any

_PACKET_COUNTER = count(1)

#: Total layer-3 packet length used by the paper-style probes, in bytes.
DEFAULT_PROBE_SIZE = 64


class Protocol(enum.Enum):
    """Layer-4 protocol of a packet, as seen by forwarding devices."""

    UDP = 17
    TCP = 6
    ICMP = 1
    RAW_IP = 201  # custom IP packets with an unassigned protocol number

    @property
    def wire_number(self) -> int:
        """IP protocol number carried in the layer-3 header."""
        return self.value


class IcmpType(enum.Enum):
    """The ICMP message types the simulator understands."""

    ECHO_REQUEST = 8
    ECHO_REPLY = 0
    TIME_EXCEEDED = 11
    DEST_UNREACHABLE = 3


@dataclass(frozen=True, order=True)
class Address:
    """A network endpoint: AS number plus a host identifier within that AS."""

    asn: int
    host: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.asn}-{self.host}"


@dataclass(slots=True)
class Packet:
    """A simulated layer-3 packet.

    ``seq`` doubles as the TCP/UDP sequence identifier and the ICMP echo
    identifier. ``flow_key`` is what per-flow ECMP hashes; for ICMP and raw
    IP it omits ports (they have none).
    """

    src: Address
    dst: Address
    protocol: Protocol
    size: int = DEFAULT_PROBE_SIZE
    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ttl: int = 64
    payload: Any = None
    icmp_type: IcmpType | None = None
    send_time: float | None = None
    packet_id: int = field(default_factory=_PACKET_COUNTER.__next__)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")
        if self.protocol is Protocol.ICMP and self.icmp_type is None:
            self.icmp_type = IcmpType.ECHO_REQUEST

    def flow_key(self) -> tuple:
        """The tuple per-flow load balancers hash."""
        if self.protocol in (Protocol.UDP, Protocol.TCP):
            return (
                self.src,
                self.dst,
                self.protocol.wire_number,
                self.src_port,
                self.dst_port,
            )
        return (self.src, self.dst, self.protocol.wire_number)

    def reply_to(self, *, size: int | None = None, payload: Any = None) -> "Packet":
        """Build a response packet with src/dst (and ports) swapped."""
        icmp_type = None
        if self.protocol is Protocol.ICMP:
            icmp_type = IcmpType.ECHO_REPLY
        return Packet(
            src=self.dst,
            dst=self.src,
            protocol=self.protocol,
            size=self.size if size is None else size,
            src_port=self.dst_port,
            dst_port=self.src_port,
            seq=self.seq,
            payload=payload,
            icmp_type=icmp_type,
        )
