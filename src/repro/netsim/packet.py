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
from typing import Any, NamedTuple

_PACKET_COUNTER = count(1)

#: Total layer-3 packet length used by the paper-style probes, in bytes.
DEFAULT_PROBE_SIZE = 64
#: The port UDP/TCP echo probes are addressed to (RFC 862's echo service).
ECHO_PORT = 7
#: Seconds an echo probe waits for its reply before it counts as lost.
PROBE_TIMEOUT = 5.0


class Protocol(enum.Enum):
    """Layer-4 protocol of a packet, as seen by forwarding devices.

    Hashed by identity, in C: every packet hashes its protocol several
    times (forwarding plans, echo sets, socket keys), and ``Enum`` would
    hash the member's name in Python each time. A member is a singleton
    (unpickling returns the same object), so identity is its equality. No
    set of protocols is iterated into any output, so the order a set
    happens to hold them in is never seen.
    """

    UDP = 17
    TCP = 6
    ICMP = 1
    RAW_IP = 201  # custom IP packets with an unassigned protocol number

    __hash__ = object.__hash__

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


class Address(NamedTuple):
    """A network endpoint: AS number plus a host identifier within that AS.

    A named tuple, so hashing, equality and ordering are the tuple's, in C
    (trail memo keys hash two per packet sent), and nothing is cached on
    the instance: a pickled address re-hashes in the process that loads it.
    Its ``repr`` is the one a frozen dataclass printed, which ECMP's
    per-flow hash reads.
    """

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

    def reply_to(self, *, payload: Any = None) -> "Packet":
        """Build a same-size response packet with src/dst (and ports)
        swapped."""
        icmp_type = None
        if self.protocol is Protocol.ICMP:
            icmp_type = IcmpType.ECHO_REPLY
        return Packet(
            src=self.dst,
            dst=self.src,
            protocol=self.protocol,
            size=self.size,
            src_port=self.dst_port,
            dst_port=self.src_port,
            seq=self.seq,
            payload=payload,
            icmp_type=icmp_type,
        )
