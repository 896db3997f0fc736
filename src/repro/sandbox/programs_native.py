"""Native twins of the stock Debuglets (the paper's Go applications).

Fig 8 compares Debuglet-to-Debuglet (sandboxed both sides) against
application-to-application (native both sides) and the two mixed cases.
These generators implement *exactly* the same measurement logic as the
assembly programs in :mod:`repro.sandbox.programs`, through the same host
ops, but run unmetered and without sandbox host-switch overhead.
"""

from __future__ import annotations

from repro.netsim.packet import Protocol
from repro.sandbox.program import NativeBody, NativeProgram, ReceivedData

_MASK64 = (1 << 64) - 1


def _publish(words: list[int]) -> tuple[str, tuple[int, int], bytes]:
    """The one ``result_bytes`` call that publishes ``words``, the way the
    sandboxed twins publish their output region."""
    payload = b"".join((word & _MASK64).to_bytes(8, "little") for word in words)
    return ("result_bytes", (0, len(payload)), payload)


def native_echo_client(protocol: Protocol, **schedule: int) -> NativeProgram:
    """Native RTT/loss client; results are (seq, rtt_us) pairs. Takes
    :func:`echo_client_body`'s keyword arguments."""
    return NativeProgram(lambda: echo_client_body(protocol, **schedule))


def echo_client_body(
    protocol: Protocol,
    *,
    count: int,
    interval_us: int = 1_000_000,
    size: int = 64,
    dst_port: int = 7,
    timeout_us: int = 2_000_000,
    drain_us: int = 2_000_000,
) -> NativeBody:
    """The echo client's schedule: one probe per interval, each awaited
    up to ``timeout_us``, then late replies drained until ``drain_us``
    passes in silence. Keeps a (seq, rtt_us) pair per matched reply, at
    most ``count``, and publishes them with one ``result_bytes`` call at
    exit."""
    proto = protocol.wire_number
    payload = bytes(size)
    send_times: dict[int, int] = {}
    words: list[int] = []

    def record(data: ReceivedData) -> NativeBody:
        if data.seq in send_times and len(words) < 2 * count:
            now, _ = yield ("now_us", (), None)
            words.extend((data.seq, now - send_times[data.seq]))
        return 0

    start, _ = yield ("now_us", (), None)
    for i in range(count):
        now, _ = yield ("now_us", (), None)
        send_times[i] = now
        yield ("net_send", (proto, 0, dst_port, i, size), payload)
        code, data = yield ("net_recv", (proto, timeout_us), None)
        if code >= 0 and data is not None:
            yield from record(data)
        yield ("sleep_until_us", (start + (i + 1) * interval_us,), None)
    while True:
        code, data = yield ("net_recv", (proto, drain_us), None)
        if code < 0 or data is None:
            break
        yield from record(data)
    yield _publish(words)
    return 0


def native_echo_server(
    protocol: Protocol,
    *,
    max_echoes: int,
    idle_timeout_us: int = 5_000_000,
) -> NativeProgram:
    """Native echo server; result is a single (0, echo_count) pair."""
    proto = protocol.wire_number

    def body() -> NativeBody:
        echoes = 0
        while echoes < max_echoes:
            code, data = yield ("net_recv", (proto, idle_timeout_us), None)
            if code < 0 or data is None:
                break
            yield ("net_reply", (proto, data.seq, len(data.payload)), None)
            echoes += 1
        yield _publish([0, echoes])
        return 0

    return NativeProgram(body)


def native_oneway_sender(
    protocol: Protocol,
    *,
    count: int,
    interval_us: int = 1_000_000,
    size: int = 64,
    dst_port: int = 9000,
) -> NativeProgram:
    """Native one-way sender; results are (seq, send_time_us) pairs."""
    proto = protocol.wire_number
    payload = bytes(size)

    def body() -> NativeBody:
        start, _ = yield ("now_us", (), None)
        for i in range(count):
            now, _ = yield ("now_us", (), None)
            yield ("result_i64", (i,), None)
            yield ("result_i64", (now,), None)
            yield ("net_send", (proto, 0, dst_port, i, size), payload)
            yield ("sleep_until_us", (start + (i + 1) * interval_us,), None)
        return 0

    return NativeProgram(body)


def native_oneway_receiver(
    protocol: Protocol,
    *,
    max_probes: int,
    idle_timeout_us: int = 5_000_000,
) -> NativeProgram:
    """Native one-way receiver; results are (seq, arrival_us) pairs."""
    proto = protocol.wire_number

    def body() -> NativeBody:
        words: list[int] = []
        while len(words) < 2 * max_probes:
            code, data = yield ("net_recv", (proto, idle_timeout_us), None)
            if code < 0 or data is None:
                break
            words.extend((data.seq, data.recv_time_us))
        yield _publish(words)
        return 0

    return NativeProgram(body)
