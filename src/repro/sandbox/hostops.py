"""Host operations: the narrow API between a Debuglet and its executor.

The paper's executor gives WA bytecode (1) protocol-namespaced send and
receive buffers and (2) an API to request packet transmission and
reception, plus an output buffer for results (§IV-B). These are the
corresponding operations. Every argument and result is a 64-bit integer;
bulk data moves through the module's declared buffers.

:data:`HOST_OPS` is the only place a host op is declared. One row per op
holds everything the rest of the system knows about it: its arity (the
VM, the stack checker, the compiled tier), its effect (the verifier's
dataflow analyses), which way a payload moves (:class:`VMProgram`), and
what it appends to the output buffer (the executor and the audit replay,
through :func:`output_bytes`). The executor's handler for a row is the
method named after it; a row without one fails at import.

``net_recv`` writes a 32-byte header followed by the payload into the
receive buffer::

    offset 0:  source contact index (or -1 if the sender is not a contact)
    offset 8:  source port
    offset 16: sequence number
    offset 24: receive timestamp (microseconds)

Protocols are named by their IP protocol number (17=UDP, 6=TCP, 1=ICMP,
201=raw IP), matching :class:`repro.netsim.packet.Protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import SandboxError
from repro.netsim.packet import Protocol

#: Header size net_recv prepends in the receive buffer.
RECV_HEADER_SIZE = 32

_I64_MAX = (1 << 63) - 1
_MASK64 = (1 << 64) - 1


def _i64_word(args: tuple[int, ...], payload: bytes | None) -> bytes:
    return (args[0] & _MASK64).to_bytes(8, "little")


def _payload(args: tuple[int, ...], payload: bytes | None) -> bytes:
    return payload or b""


@dataclass(frozen=True)
class HostOp:
    """One host op. Every op pops ``len(arg_roles)`` i64s and pushes one."""

    name: str
    #: semantic role of each popped argument, deepest first. ``proto``
    #: first marks a network op (capability inference keys off it).
    arg_roles: tuple[str, ...]
    #: signed interval ``[lo, hi]`` the i64 result always lies in
    result_range: tuple[int, int]
    #: provenance kind of the result: net | time | rand | const
    result_taint: str
    #: may suspend the program while simulated time passes
    blocking: bool = False
    #: puts a packet on the wire (read-only capability records omit it)
    transmits: bool = False
    #: where :class:`VMProgram` reads the outgoing payload:
    #: ``"send_buffer"`` — the first ``size`` (last argument) bytes of the
    #: send buffer of the protocol (first argument); ``"memory"`` —
    #: ``length`` bytes of linear memory at ``offset``
    payload_from: str | None = None
    #: :class:`VMProgram` writes the received header and payload into the
    #: protocol's receive buffer
    writes_recv_buffer: bool = False
    #: the bytes one call appends to the output buffer, from its arguments
    #: and payload; None for ops that append nothing
    output: Callable[[tuple[int, ...], bytes | None], bytes] | None = None

    @property
    def arity(self) -> int:
        return len(self.arg_roles)


#: op name -> :class:`HostOp`, in the order capability records list them.
#: Comments say what a result means where its range does not.
HOST_OPS: dict[str, HostOp] = {
    row.name: row
    for row in (
        HostOp("log_i64", ("value",), (0, 0), "const"),  # 0; debug channel
        # payload size, or -1 on timeout
        HostOp("net_recv", ("proto", "timeout_us"), (-1, _I64_MAX), "net",
               blocking=True, writes_recv_buffer=True),
        # 1, or 0 when nothing has been received to reply to
        HostOp("net_reply", ("proto", "seq", "size"), (0, 1), "const",
               transmits=True),
        HostOp("net_send", ("proto", "contact_idx", "dst_port", "seq", "size"),
               (1, 1), "const", transmits=True, payload_from="send_buffer"),
        HostOp("now_us", (), (0, _I64_MAX), "time"),  # simulated microseconds
        # executor-provided randomness (e.g. a TCP sequence number)
        HostOp("rand_u32", (), (0, (1 << 32) - 1), "rand"),
        HostOp("result_i64", ("value",), (0, 0), "const", output=_i64_word),
        HostOp("result_bytes", ("offset", "length"), (0, 0), "const",
               payload_from="memory", output=_payload),
        HostOp("sleep_until_us", ("wake_time_us",), (0, 0), "const",
               blocking=True),
    )
}


def output_bytes(name: str, args: tuple[int, ...], payload: bytes | None) -> bytes:
    """What a call of ``name`` appends to the output buffer (``b""`` for
    most ops). The executor and the audit replay both encode results here."""
    output = HOST_OPS[name].output
    return b"" if output is None else output(args, payload)


def net_ops() -> tuple[str, ...]:
    """Host ops that take a wire protocol as their first argument."""
    return tuple(
        name for name, row in HOST_OPS.items() if row.arg_roles[:1] == ("proto",)
    )


_PROTOCOLS_BY_NUMBER = {p.wire_number: p for p in Protocol}


def protocol_from_number(number: int) -> Protocol:
    """Map a wire protocol number to :class:`Protocol`; trap if unknown."""
    protocol = _PROTOCOLS_BY_NUMBER.get(number)
    if protocol is None:
        raise SandboxError(f"unsupported protocol number {number}")
    return protocol
