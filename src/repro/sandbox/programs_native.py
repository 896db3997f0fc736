"""Native twins of the stock Debuglets (the paper's Go applications).

Fig 8 compares Debuglet-to-Debuglet (sandboxed both sides) against
application-to-application (native both sides) and the two mixed cases.
These generators implement *exactly* the same measurement logic as the
assembly programs in :mod:`repro.sandbox.programs`, through the same host
ops, but run unmetered and without sandbox host-switch overhead.
"""

from __future__ import annotations

from repro.netsim.packet import Protocol
from repro.sandbox.program import NativeBody, NativeProgram


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
    passes in silence. Emits a ``result_i64`` (seq, rtt_us) pair per
    matched reply."""
    proto = protocol.wire_number
    payload = bytes(size)
    send_times: dict[int, int] = {}
    start, _ = yield ("now_us", (), None)
    for i in range(count):
        now, _ = yield ("now_us", (), None)
        send_times[i] = now
        yield ("net_send", (proto, 0, dst_port, i, size), payload)
        code, data = yield ("net_recv", (proto, timeout_us), None)
        if code >= 0 and data is not None and data.seq in send_times:
            now, _ = yield ("now_us", (), None)
            yield ("result_i64", (data.seq,), None)
            yield ("result_i64", (now - send_times[data.seq],), None)
        yield ("sleep_until_us", (start + (i + 1) * interval_us,), None)
    while True:
        code, data = yield ("net_recv", (proto, drain_us), None)
        if code < 0 or data is None:
            break
        if data.seq in send_times:
            now, _ = yield ("now_us", (), None)
            yield ("result_i64", (data.seq,), None)
            yield ("result_i64", (now - send_times[data.seq],), None)
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
        yield ("result_i64", (0,), None)
        yield ("result_i64", (echoes,), None)
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
        received = 0
        while received < max_probes:
            code, data = yield ("net_recv", (proto, idle_timeout_us), None)
            if code < 0 or data is None:
                break
            yield ("result_i64", (data.seq,), None)
            yield ("result_i64", (data.recv_time_us,), None)
            received += 1
        return 0

    return NativeProgram(body)
