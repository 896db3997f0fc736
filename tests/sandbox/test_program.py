"""Program wrappers: VM payload marshalling and native generators."""

import pytest

from repro.common.errors import SandboxError
from repro.sandbox.assembler import assemble
from repro.sandbox.program import NativeProgram, ReceivedData, VMProgram
from repro.sandbox.vm import Done, HostCall


class TestVMProgram:
    def test_net_send_carries_buffer_payload(self):
        source = """
        .memory 4096
        .buffer udp_send_buffer 0 64
        .func run_debuglet 0 0
            push 0
            push 65
            store8
            push 17
            push 0
            push 7
            push 1
            push 4
            host net_send
            ret
        .end
        """
        program = VMProgram(assemble(source))
        step = program.begin()
        assert isinstance(step, HostCall)
        assert step.name == "net_send"
        assert step.payload == b"A\x00\x00\x00"
        assert program.resume(1) == Done(1)

    def test_net_send_size_beyond_buffer_rejected(self):
        source = """
        .memory 4096
        .buffer udp_send_buffer 0 8
        .func run_debuglet 0 0
            push 17
            push 0
            push 7
            push 1
            push 64
            host net_send
            ret
        .end
        """
        program = VMProgram(assemble(source))
        with pytest.raises(SandboxError, match="exceeds buffer"):
            program.begin()

    def test_net_recv_writes_header_and_payload(self):
        source = """
        .memory 4096
        .buffer udp_recv_buffer 0 128
        .func run_debuglet 0 0
            push 17
            push 1000
            host net_recv
            drop
            push 16
            load64
            ret
        .end
        """
        program = VMProgram(assemble(source))
        step = program.begin()
        assert step.name == "net_recv"
        data = ReceivedData(
            contact_index=0, src_port=7, seq=99, recv_time_us=1234, payload=b"hey"
        )
        done = program.resume(len(data.payload), data)
        assert done == Done(99)  # header.seq at offset 16

    def test_missing_buffer_traps(self):
        source = """
        .memory 4096
        .func run_debuglet 0 0
            push 17
            push 0
            push 7
            push 1
            push 4
            host net_send
            ret
        .end
        """
        program = VMProgram(assemble(source))
        with pytest.raises(SandboxError, match="buffers"):
            program.begin()

    def test_oversized_receive_rejected(self):
        source = """
        .memory 4096
        .buffer udp_recv_buffer 0 40
        .func run_debuglet 0 0
            push 17
            push 1000
            host net_recv
            ret
        .end
        """
        program = VMProgram(assemble(source))
        program.begin()
        data = ReceivedData(0, 7, 1, 0, payload=b"x" * 100)
        with pytest.raises(SandboxError, match="exceed buffer"):
            program.resume(100, data)

    def test_result_bytes_reads_memory(self):
        source = """
        .memory 4096
        .func run_debuglet 0 0
            push 0
            push 72
            store8
            push 0
            push 1
            host result_bytes
            ret
        .end
        """
        program = VMProgram(assemble(source))
        step = program.begin()
        assert step.name == "result_bytes"
        assert step.payload == b"H"


class TestNativeProgram:
    def test_generator_lifecycle(self):
        def body():
            t, _ = yield ("now_us", (), None)
            code, data = yield ("net_recv", (17, 1000), None)
            return t + code

        program = NativeProgram(body)
        step = program.begin()
        assert step == HostCall("now_us", (), None)
        step = program.resume(100)
        assert step.name == "net_recv"
        assert program.resume(-1, None) == Done(99)

    def test_plain_return_without_yield(self):
        def body():
            return 7
            yield  # pragma: no cover

        assert NativeProgram(body).begin() == Done(7)

    def test_malformed_yield_rejected(self):
        def body():
            yield "not-a-tuple"

        with pytest.raises(SandboxError, match="malformed"):
            NativeProgram(body).begin()

    def test_unknown_op_rejected(self):
        def body():
            yield ("bogus", (), None)

        with pytest.raises(SandboxError, match="unknown op"):
            NativeProgram(body).begin()

    def test_cannot_begin_twice(self):
        def body():
            yield ("now_us", (), None)

        program = NativeProgram(body)
        program.begin()
        with pytest.raises(SandboxError):
            program.begin()

    def test_is_not_sandboxed(self):
        def body():
            return 0
            yield  # pragma: no cover

        assert NativeProgram(body).is_sandboxed is False
        assert NativeProgram(body).fuel_used == 0
