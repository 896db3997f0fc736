"""Stock Debuglets: assembly correctness, manifests, result encoding."""

import pytest

from repro.common.errors import SandboxError
from repro.netsim.packet import Address, Protocol
from repro.sandbox.program import ReceivedData, VMProgram
from repro.sandbox.programs import (
    decode_result_pairs,
    echo_client,
    echo_server,
    oneway_receiver,
    oneway_sender,
)
from repro.sandbox.vm import Done, HostCall

SERVER = Address(2, "exec1")


class TestDecodeResultPairs:
    def test_roundtrip(self):
        blob = b"".join(
            v.to_bytes(8, "little", signed=True) for v in (1, 100, 2, -1)
        )
        assert decode_result_pairs(blob) == [(1, 100), (2, -1)]

    def test_rejects_ragged_length(self):
        with pytest.raises(SandboxError):
            decode_result_pairs(b"\x00" * 7)

    def test_rejects_odd_value_count(self):
        with pytest.raises(SandboxError):
            decode_result_pairs(b"\x00" * 24)

    def test_empty_ok(self):
        assert decode_result_pairs(b"") == []


def _words(payload: bytes) -> list[int]:
    """The i64 words of a published output region."""
    return [value for pair in decode_result_pairs(payload) for value in pair]


def _drive_echo_client(program: VMProgram, args, *, reply_seqs, rtt_us=500):
    """Minimal host loop: answer net_recv with echoes for chosen seqs."""
    t = [0]
    results = []
    pending_replies = list(reply_seqs)
    sent = []

    step = program.begin(list(args))
    while isinstance(step, HostCall):
        if step.name == "now_us":
            step = program.resume(t[0])
        elif step.name == "net_send":
            sent.append(step.args[3])
            step = program.resume(1)
        elif step.name == "net_recv":
            seq_wanted = sent[-1]
            if pending_replies and pending_replies[0] == seq_wanted:
                pending_replies.pop(0)
                t[0] += rtt_us
                step = program.resume(
                    64, ReceivedData(0, 7, seq_wanted, t[0], bytes(64))
                )
            else:
                t[0] += step.args[1]
                step = program.resume(-1)
        elif step.name == "sleep_until_us":
            t[0] = max(t[0], step.args[0])
            step = program.resume(0)
        elif step.name == "result_bytes":
            results.extend(_words(step.payload))
            step = program.resume(0)
        else:
            step = program.resume(0)
    assert isinstance(step, Done)
    return sent, results


class TestEchoClient:
    def test_sends_all_probes_and_records_rtts(self):
        stock = echo_client(
            Protocol.UDP, SERVER, count=3, interval_us=1000, timeout_us=500,
            drain_us=100,
        )
        program = VMProgram(stock.module, fuel_limit=stock.manifest.max_instructions)
        sent, results = _drive_echo_client(program, stock.args, reply_seqs=[0, 1, 2])
        assert sent == [0, 1, 2]
        pairs = list(zip(results[0::2], results[1::2]))
        assert [seq for seq, _ in pairs] == [0, 1, 2]
        assert all(rtt == 500 for _, rtt in pairs)

    def test_losses_leave_gaps(self):
        stock = echo_client(
            Protocol.UDP, SERVER, count=4, interval_us=1000, timeout_us=500,
            drain_us=100,
        )
        program = VMProgram(stock.module, fuel_limit=stock.manifest.max_instructions)
        sent, results = _drive_echo_client(program, stock.args, reply_seqs=[0, 2])
        assert sent == [0, 1, 2, 3]
        recorded_seqs = results[0::2]
        assert recorded_seqs == [0, 2]

    def test_manifest_sized_to_workload(self):
        stock = echo_client(Protocol.TCP, SERVER, count=100)
        assert stock.manifest.max_packets_sent == 100
        assert stock.manifest.contacts == (SERVER,)
        assert stock.manifest.capabilities == ("tcp",)
        assert stock.manifest.max_instructions >= 100 * 100

    def test_each_protocol_assembles(self):
        for protocol in Protocol:
            stock = echo_client(protocol, SERVER, count=2)
            stock.module.validate()

    def test_rejects_nonpositive_count(self):
        with pytest.raises(SandboxError):
            echo_client(Protocol.UDP, SERVER, count=0)


class TestEchoServer:
    def test_replies_and_reports_count(self):
        stock = echo_server(Protocol.UDP, max_echoes=2, idle_timeout_us=1000)
        program = VMProgram(stock.module, fuel_limit=stock.manifest.max_instructions)
        replies = []
        results = []
        step = program.begin()
        served = 0
        while isinstance(step, HostCall):
            if step.name == "net_recv":
                if served < 2:
                    step = program.resume(
                        64, ReceivedData(-1, 1000, served, 0, bytes(64))
                    )
                    served += 1
                else:
                    step = program.resume(-1)
            elif step.name == "net_reply":
                replies.append(step.args[1])
                step = program.resume(1)
            elif step.name == "result_bytes":
                results.extend(_words(step.payload))
                step = program.resume(0)
            else:
                step = program.resume(0)
        assert replies == [0, 1]
        assert results == [0, 2]  # (key=0, echo count=2)


class TestOneWayPrograms:
    def test_sender_records_seq_time_pairs(self):
        stock = oneway_sender(Protocol.UDP, SERVER, count=3, interval_us=100)
        program = VMProgram(stock.module, fuel_limit=stock.manifest.max_instructions)
        t = [0]
        results = []
        step = program.begin()
        while isinstance(step, HostCall):
            if step.name == "now_us":
                step = program.resume(t[0])
            elif step.name == "sleep_until_us":
                t[0] = max(t[0], step.args[0])
                step = program.resume(0)
            elif step.name == "result_i64":
                results.append(step.args[0])
                step = program.resume(0)
            else:
                step = program.resume(1)
        pairs = list(zip(results[0::2], results[1::2]))
        assert [seq for seq, _ in pairs] == [0, 1, 2]
        times = [ts for _, ts in pairs]
        assert times == sorted(times)

    def test_receiver_records_arrivals(self):
        stock = oneway_receiver(Protocol.UDP, max_probes=2, idle_timeout_us=100)
        program = VMProgram(stock.module, fuel_limit=stock.manifest.max_instructions)
        results = []
        step = program.begin()
        arrival = 0
        while isinstance(step, HostCall):
            if step.name == "net_recv":
                if arrival < 2:
                    arrival += 1
                    step = program.resume(
                        64, ReceivedData(-1, 1, arrival, arrival * 1000, bytes(64))
                    )
                else:
                    step = program.resume(-1)
            elif step.name == "result_bytes":
                results.extend(_words(step.payload))
                step = program.resume(0)
            else:
                step = program.resume(0)
        assert decode_result_pairs(
            b"".join(v.to_bytes(8, "little", signed=True) for v in results)
        ) == [(1, 1000), (2, 2000)]
