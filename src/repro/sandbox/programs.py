"""Stock Debuglet programs, generated as assembly and compiled to modules.

These are the reproduction's equivalents of the paper's Rust-to-WA sample
Debuglets (§V-A): an echo client that measures RTT and loss, an echo
server, and a one-way sender/receiver pair for unidirectional measurements
(§III). Each factory returns the compiled module plus a manifest sized to
the requested workload, and the entry arguments it starts with: the echo
client takes its port and pacing as arguments, so one bytecode serves
every client of a ``(protocol, count, size)``.

Result encoding convention (shared by the native twins): the output buffer
is a sequence of i64 little-endian values, in (key, value) pairs —
``(seq, rtt_us)`` for echo clients, ``(seq, timestamp_us)`` for one-way
programs, and a single ``(0, echo_count)`` trailer for servers. Decode with
:func:`decode_result_pairs`.

How results leave a program: the echo client, the echo server and the
one-way receiver write their pairs into an *output region* of linear
memory, an area after every buffer sized for the most pairs the program
can record, and publish it with one ``result_bytes(offset, length)`` call
just before they return. So a probe costs no crossing for its result,
and the executor appends the region in one piece. A run stopped before
that call (a budget kill, a trap) publishes nothing; nothing reads a
failed record's pairs. The client's cursor never runs past its region: a
reply that finds it full is not recorded. The one-way sender still emits
each ``(seq, send_time_us)`` pair with two ``result_i64`` calls: the
second sits between its timestamp and its ``net_send``, so it is part of
the one-way delay the pair measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SandboxError
from repro.netsim.packet import Address, Protocol
from repro.sandbox.assembler import assemble
from repro.sandbox.manifest import DebugletPolicy, Manifest
from repro.sandbox.module import Module

DEFAULT_TIMEOUT_US = 2_000_000
DEFAULT_DRAIN_US = 2_000_000

#: The longest interval, receive timeout or drain an echo client accepts
#: as an argument: one hour, the default executor policy's duration cap.
MAX_WAIT_US = 3_600_000_000


@dataclass(frozen=True)
class StockProgram:
    """A compiled module with its matching manifest and the arguments its
    entry point is started with (empty for a module that takes none)."""

    module: Module
    manifest: Manifest
    args: tuple[int, ...] = ()


def _align(value: int, boundary: int = 64) -> int:
    return (value + boundary - 1) // boundary * boundary


def decode_result_pairs(result: bytes) -> list[tuple[int, int]]:
    """Decode the (key, value) i64-pair result encoding."""
    if len(result) % 8 != 0:
        raise SandboxError(f"result length {len(result)} is not a multiple of 8")
    values = [
        int.from_bytes(result[i : i + 8], "little", signed=True)
        for i in range(0, len(result), 8)
    ]
    if len(values) % 2 != 0:
        raise SandboxError("result does not contain whole (key, value) pairs")
    return list(zip(values[0::2], values[1::2]))


def echo_client(
    protocol: Protocol,
    server: Address,
    *,
    count: int,
    interval_us: int = 1_000_000,
    size: int = 64,
    dst_port: int = 7,
    timeout_us: int = DEFAULT_TIMEOUT_US,
    drain_us: int = DEFAULT_DRAIN_US,
) -> StockProgram:
    """An RTT/loss measuring client: send ``count`` probes, match replies.

    Per-sequence send times are kept in a table in linear memory so
    out-of-order replies still yield correct RTTs. The table has a
    power-of-two number of slots and a reply's sequence number indexes it
    modulo that size, so no reply can make the client read outside it.
    Results are ``(seq, rtt_us)`` pairs for every reply received, kept in
    an output region of ``16 * count`` bytes and published once, at exit;
    a reply that finds the region full is not recorded. A probe answered
    in time crosses the sandbox boundary five times (``now_us``,
    ``net_send``, ``net_recv``, ``now_us``, ``sleep_until_us``), a lost
    one four.

    One bytecode serves every client of a measurement kind, the
    ``(protocol, count, size)`` that shape its memory and its loop: the
    port and the pacing (``dst_port``, ``interval_us``, ``timeout_us``,
    ``drain_us``) are ``run_debuglet``'s arguments, in that order, each
    declared in an interval (``[0, 65535]`` for the port, up to
    :data:`MAX_WAIT_US` for the others) that the verifier proves the
    module over and every gate that starts a session checks. They travel
    as :attr:`StockProgram.args`; only the manifest's duration budget
    depends on them.
    """
    if count <= 0:
        raise SandboxError("count must be positive")
    proto = protocol.name.lower()
    slots = 1 << (count - 1).bit_length()
    # the send-time table sits at address 0, so a slot's address is 8 * seq
    send_off, send_size = _align(slots * 8), max(size, 8)
    recv_off = _align(send_off + send_size)
    recv_size = 32 + max(size, 8)
    out_off = _align(recv_off + recv_size)
    out_last = out_off + 16 * (count - 1)  # where the last pair goes
    memory = _align(out_last + 16, 4096)
    seq_addr = recv_off + 16

    source = f"""
; echo client: {proto} x{count} to contact 0, {size}B probes
.memory {memory}
.arg 0 65535        ; arguments: destination port,
.arg 0 {MAX_WAIT_US}   ; probe interval,
.arg 1 {MAX_WAIT_US}   ; reply timeout and
.arg 1 {MAX_WAIT_US}   ; drain, in us
.buffer {proto}_send_buffer {send_off} {send_size}
.buffer {proto}_recv_buffer {recv_off} {recv_size}

.func record_reply 1 1        ; param: where the pair goes; local: seq
    local_get 0
    push {seq_addr}
    load64
    local_tee 1
    store64                   ; pair.seq = recv header.seq
    local_get 0
    push 8
    add
    host now_us
    local_get 1
    push {slots - 1}
    and
    push 8
    mul
    load64
    sub
    store64                   ; pair.rtt = now - table[seq]
    push 16
    ret
.end

.func run_debuglet 4 4        ; locals: i, start, next pair, recv size
    push {out_off}
    local_set 6
    host now_us
    local_set 5               ; start = now
loop:
    local_get 4
    push {count}
    ges
    jnz drain                 ; all probes sent
    local_get 4
    push 8
    mul
    host now_us
    store64                   ; table[i] = now (send timestamp)
    push {protocol.wire_number}
    push 0
    local_get 0
    local_get 4
    push {size}
    host net_send
    drop
    push {protocol.wire_number}
    local_get 2
    host net_recv
    push 0
    lts
    jnz no_reply              ; timeout: loss recorded implicitly
    local_get 6
    push {out_last}
    gts
    jnz no_reply              ; output region full
    local_get 6
    call record_reply
    local_get 6
    add
    local_set 6
no_reply:
    local_get 4
    push 1
    add
    local_tee 4
    local_get 1
    mul
    local_get 5
    add
    host sleep_until_us       ; until start + (i + 1) * interval
    drop
    jmp loop
drain:
    push {protocol.wire_number}
    local_get 3
    host net_recv
    local_set 7
    local_get 7
    push 0
    lts
    jnz done
    local_get 6
    push {out_last}
    gts
    jnz drain
    local_get 6
    call record_reply
    local_get 6
    add
    local_set 6
    jmp drain
done:
    push {out_off}
    local_get 6
    push {out_off}
    sub
    host result_bytes         ; publish the output region
    drop
    push 0
    ret
.end
"""
    module = assemble(source)
    manifest = Manifest(
        max_instructions=800 * count + 50_000,
        max_duration=count * interval_us / 1e6 + (timeout_us + drain_us) / 1e6 + 10.0,
        max_memory_bytes=memory,
        max_packets_sent=count,
        max_packets_received=count,
        contacts=(server,),
        capabilities=(proto,),
        max_result_bytes=16 * count + 64,
        policy=DebugletPolicy(
            emit_sources=("net", "time"),
            max_send_size=max(size, 8),
            allowed_protocols=(proto,),
        ),
    )
    return StockProgram(
        module, manifest, (dst_port, interval_us, timeout_us, drain_us)
    )


def echo_server(
    protocol: Protocol,
    *,
    max_echoes: int,
    idle_timeout_us: int = 5_000_000,
    size: int = 64,
) -> StockProgram:
    """Echo every probe back to its sender; finish when idle.

    The result is a single ``(0, echo_count)`` pair, so the initiator can
    cross-check how many probes arrived at the far vantage point.
    """
    if max_echoes <= 0:
        raise SandboxError("max_echoes must be positive")
    proto = protocol.name.lower()
    recv_off = 0
    recv_size = 32 + max(size, 8)
    out_off = _align(recv_off + recv_size)
    memory = _align(out_off + 16, 4096)
    seq_addr = recv_off + 16

    source = f"""
; echo server: {proto}, up to {max_echoes} echoes, idle timeout {idle_timeout_us}us
.memory {memory}
.buffer {proto}_recv_buffer {recv_off} {recv_size}

.func run_debuglet 0 2        ; locals: count, recv_size
loop:
    local_get 0
    push {max_echoes}
    ges
    jnz done
    push {protocol.wire_number}
    push {idle_timeout_us}
    host net_recv
    local_set 1
    local_get 1
    push 0
    lts
    jnz done                  ; idle: no probe within the timeout
    push {protocol.wire_number}
    push {seq_addr}
    load64
    local_get 1
    host net_reply
    drop
    local_get 0
    push 1
    add
    local_set 0
    jmp loop
done:
    push {out_off}
    push 0
    store64
    push {out_off + 8}
    local_get 0
    store64                   ; output = (0, count)
    push {out_off}
    push 16
    host result_bytes
    drop
    push 0
    ret
.end
"""
    module = assemble(source)
    manifest = Manifest(
        max_instructions=400 * max_echoes + 50_000,
        max_duration=max_echoes * 2.0 + idle_timeout_us / 1e6 + 10.0,
        max_memory_bytes=memory,
        max_packets_sent=max_echoes,
        max_packets_received=max_echoes,
        contacts=(),
        capabilities=(proto,),
        max_result_bytes=64,
        policy=DebugletPolicy(
            emit_sources=(),
            max_send_size=max(size, 8),
            allowed_protocols=(proto,),
        ),
    )
    return StockProgram(module, manifest)


def oneway_sender(
    protocol: Protocol,
    receiver: Address,
    *,
    count: int,
    interval_us: int = 1_000_000,
    size: int = 64,
    dst_port: int = 9000,
) -> StockProgram:
    """Send a probe train and record ``(seq, send_time_us)`` pairs.

    Combined with :func:`oneway_receiver` on the far side, the initiator
    computes per-direction delay and loss — the paper's unidirectional
    measurement requirement (§III).
    """
    if count <= 0:
        raise SandboxError("count must be positive")
    proto = protocol.name.lower()
    send_size = max(size, 8)
    memory = _align(send_size, 4096)

    source = f"""
; one-way sender: {proto} x{count} to contact 0
.memory {memory}
.buffer {proto}_send_buffer 0 {send_size}

.func run_debuglet 0 2        ; locals: i, start
    host now_us
    local_set 1
loop:
    local_get 0
    push {count}
    ges
    jnz done
    local_get 0
    host result_i64
    drop
    host now_us
    host result_i64
    drop
    push {protocol.wire_number}
    push 0
    push {dst_port}
    local_get 0
    push {size}
    host net_send
    drop
    local_get 0
    push 1
    add
    push {interval_us}
    mul
    local_get 1
    add
    host sleep_until_us
    drop
    local_get 0
    push 1
    add
    local_set 0
    jmp loop
done:
    push 0
    ret
.end
"""
    module = assemble(source)
    manifest = Manifest(
        max_instructions=600 * count + 50_000,
        max_duration=count * interval_us / 1e6 + 10.0,
        max_memory_bytes=memory,
        max_packets_sent=count,
        max_packets_received=0,
        contacts=(receiver,),
        capabilities=(proto,),
        max_result_bytes=16 * count + 64,
        policy=DebugletPolicy(
            emit_sources=("time",),
            max_send_size=max(size, 8),
            allowed_protocols=(proto,),
        ),
    )
    return StockProgram(module, manifest)


def oneway_receiver(
    protocol: Protocol,
    *,
    max_probes: int,
    idle_timeout_us: int = 5_000_000,
    size: int = 64,
) -> StockProgram:
    """Record ``(seq, arrival_time_us)`` for every probe received.

    The arrival time is the receive header's; the pairs go to an output
    region published once, at exit, so a probe costs one crossing.
    """
    if max_probes <= 0:
        raise SandboxError("max_probes must be positive")
    proto = protocol.name.lower()
    recv_off = 0
    recv_size = 32 + max(size, 8)
    out_off = _align(recv_off + recv_size)
    memory = _align(out_off + 16 * max_probes, 4096)
    seq_addr = recv_off + 16
    time_addr = recv_off + 24

    source = f"""
; one-way receiver: {proto}, up to {max_probes} probes
.memory {memory}
.buffer {proto}_recv_buffer {recv_off} {recv_size}

.func run_debuglet 0 2        ; locals: count, recv_size
loop:
    local_get 0
    push {max_probes}
    ges
    jnz done
    push {protocol.wire_number}
    push {idle_timeout_us}
    host net_recv
    local_set 1
    local_get 1
    push 0
    lts
    jnz done
    local_get 0
    push 16
    mul
    push {out_off}
    add
    push {seq_addr}
    load64
    store64
    local_get 0
    push 16
    mul
    push {out_off + 8}
    add
    push {time_addr}
    load64
    store64                   ; output[count] = (seq, arrival time)
    local_get 0
    push 1
    add
    local_set 0
    jmp loop
done:
    push {out_off}
    local_get 0
    push 16
    mul
    host result_bytes         ; publish the output region
    drop
    push 0
    ret
.end
"""
    module = assemble(source)
    manifest = Manifest(
        max_instructions=400 * max_probes + 50_000,
        max_duration=max_probes * 2.0 + idle_timeout_us / 1e6 + 10.0,
        max_memory_bytes=memory,
        max_packets_sent=0,
        max_packets_received=max_probes,
        contacts=(),
        capabilities=(proto,),
        max_result_bytes=16 * max_probes + 64,
        policy=DebugletPolicy(
            emit_sources=("net", "time"),
            allowed_protocols=(proto,),
        ),
    )
    return StockProgram(module, manifest)
