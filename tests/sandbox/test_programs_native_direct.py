"""Native stock programs driven directly through the step interface."""


from repro.netsim.packet import Protocol
from repro.sandbox.program import ReceivedData
from repro.sandbox.programs import decode_result_pairs
from repro.sandbox.programs_native import (
    native_echo_server,
    native_oneway_receiver,
    native_oneway_sender,
)
from repro.sandbox.vm import Done, HostCall


def _words(payload: bytes) -> list[int]:
    """The i64 words of a published result."""
    return [value for pair in decode_result_pairs(payload) for value in pair]


def _drive(program, handler):
    step = program.begin()
    while isinstance(step, HostCall):
        result, data = handler(step)
        step = program.resume(result, data)
    assert isinstance(step, Done)
    return step


class TestNativeOneWay:
    def test_sender_emits_send_times(self):
        program = native_oneway_sender(
            Protocol.UDP, count=3, interval_us=1000, dst_port=5
        )
        clock = [0]
        results = []

        def handler(call):
            if call.name == "now_us":
                return clock[0], None
            if call.name == "sleep_until_us":
                clock[0] = max(clock[0], call.args[0])
                return 0, None
            if call.name == "result_i64":
                results.append(call.args[0])
                return 0, None
            if call.name == "net_send":
                clock[0] += 10
                return 1, None
            raise AssertionError(call.name)

        _drive(program, handler)
        pairs = list(zip(results[0::2], results[1::2]))
        assert [seq for seq, _ in pairs] == [0, 1, 2]
        send_times = [t for _, t in pairs]
        assert send_times == sorted(send_times)

    def test_receiver_stops_on_idle(self):
        program = native_oneway_receiver(
            Protocol.UDP, max_probes=10, idle_timeout_us=100
        )
        deliveries = [
            ReceivedData(0, 5, 0, 1000, b"x" * 8),
            ReceivedData(0, 5, 1, 2000, b"x" * 8),
        ]
        results = []

        def handler(call):
            if call.name == "net_recv":
                if deliveries:
                    data = deliveries.pop(0)
                    return len(data.payload), data
                return -1, None
            if call.name == "result_bytes":
                results.extend(_words(call.payload))
                return 0, None
            return 0, None

        _drive(program, handler)
        blob = b"".join(v.to_bytes(8, "little", signed=True) for v in results)
        assert decode_result_pairs(blob) == [(0, 1000), (1, 2000)]


class TestNativeEchoServer:
    def test_stops_at_max_echoes(self):
        program = native_echo_server(Protocol.UDP, max_echoes=2,
                                     idle_timeout_us=100)
        served = [0]
        replies = []
        results = []

        def handler(call):
            if call.name == "net_recv":
                if served[0] < 5:  # more traffic than the cap
                    served[0] += 1
                    return 8, ReceivedData(0, 5, served[0], 0, b"y" * 8)
                return -1, None
            if call.name == "net_reply":
                replies.append(call.args[1])
                return 1, None
            if call.name == "result_bytes":
                results.extend(_words(call.payload))
                return 0, None
            return 0, None

        _drive(program, handler)
        assert len(replies) == 2  # capped
        assert results == [0, 2]
