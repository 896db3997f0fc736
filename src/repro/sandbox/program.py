"""Runnable programs: the executor-facing interface for Debuglets.

An executor drives a program as a sequence of *steps*: it begins the
program, receives :class:`~repro.sandbox.vm.HostCall` requests (host
operations), performs them against the simulated network, and resumes the
program with results until :class:`~repro.sandbox.vm.Done`. Both are the
VM's own types, so a host call has one shape from the VM to the audit.

Two implementations exist:

- :class:`VMProgram` — sandboxed bytecode in the :class:`~repro.sandbox.vm.VM`
  (the paper's WebAssembly Debuglets). Marshals payloads between host calls
  and the module's declared buffers, as each op's row in
  :data:`~repro.sandbox.hostops.HOST_OPS` directs.
- :class:`NativeProgram` — a plain Python generator using the same host
  ops (the paper's native Go applications, the A2A baseline of Fig 8).
  No metering, no memory isolation, no host-switch overhead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Generator

from repro.common.errors import SandboxError
from repro.sandbox.hostops import HOST_OPS, RECV_HEADER_SIZE, protocol_buffer
from repro.sandbox.module import BufferSpec, Module
from repro.sandbox.vm import VM, Done, HostCall

#: the RECV_HEADER_SIZE-byte header ``net_recv`` writes ahead of the payload
_RECV_HEADER = struct.Struct("<4q")


@dataclass(slots=True)
class ReceivedData:
    """What a successful ``net_recv`` hands back to the program."""

    contact_index: int
    src_port: int
    seq: int
    recv_time_us: int
    payload: bytes


Step = HostCall | Done


class RunnableProgram:
    """Interface executors drive. Subclasses implement begin/resume."""

    is_sandboxed: bool = False

    def begin(self, args: list[int] | None = None) -> Step:
        raise NotImplementedError

    def resume(self, result: int, data: ReceivedData | None = None) -> Step:
        raise NotImplementedError

    @property
    def fuel_used(self) -> int:
        return 0


#: Tier used by :class:`VMProgram` when none is requested explicitly.
#: "auto" compiles modules whose static proofs hold and falls back to the
#: reference interpreter otherwise; scenarios and the marketplace thus run
#: on the compiled tier by default (DESIGN.md §7). Tests flip this to
#: "reference" to run a whole scenario on the interpreter.
DEFAULT_TIER = "auto"


class VMProgram(RunnableProgram):
    """A sandboxed bytecode Debuglet."""

    is_sandboxed = True

    def __init__(
        self, module: Module, *, fuel_limit: int = 10_000_000, obs=None,
        tier: str | None = None,
    ) -> None:
        self.module = module
        self.vm = VM(
            module, fuel_limit=fuel_limit, obs=obs,
            tier=tier if tier is not None else DEFAULT_TIER,
        )
        self._pending: HostCall | None = None
        # protocol number -> declared buffer, resolved on first use
        self._send_buffers: dict[int, BufferSpec] = {}
        self._recv_buffers: dict[int, BufferSpec] = {}

    @property
    def tier(self) -> str:
        """The tier actually selected ("compiled" or "reference")."""
        return self.vm.tier

    @property
    def fuel_used(self) -> int:
        return self.vm.fuel_used

    def begin(self, args: list[int] | None = None) -> Step:
        return self._translate(self.vm.start(args))

    def resume(self, result: int, data: ReceivedData | None = None) -> Step:
        call = self._pending
        if call is None:
            raise SandboxError("program is not awaiting a host call")
        self._pending = None
        if data is not None and HOST_OPS[call.name].writes_recv_buffer:
            self._write_received(call, data)
        return self._translate(self.vm.resume([result]))

    def _translate(self, step: Step) -> Step:
        if type(step) is Done:
            return step
        self._pending = step
        source = HOST_OPS[step.name].payload_from
        if source is None:
            return step
        return HostCall(step.name, step.args, self._read_payload(source, step))

    def _buffer(
        self, cache: dict[int, BufferSpec], proto_number: int, kind: str
    ) -> BufferSpec:
        """The protocol's ``kind`` buffer (``send_buffer`` / ``recv_buffer``),
        looked up in the module once per program and protocol."""
        buffer = cache.get(proto_number)
        if buffer is None:
            buffer = cache[proto_number] = protocol_buffer(
                self.module, proto_number, kind
            )
        return buffer

    def _read_payload(self, source: str, call: HostCall) -> bytes:
        if source == "memory":
            offset, length = call.args
            return self.vm.read_memory(offset, length)
        buffer = self._buffer(self._send_buffers, call.args[0], "send_buffer")
        size = call.args[-1]
        if size < 0 or size > buffer.size:
            raise SandboxError(
                f"{call.name} size {size} exceeds buffer {buffer.name}"
            )
        return self.vm.read_memory(buffer.offset, size)

    def _write_received(self, call: HostCall, data: ReceivedData) -> None:
        buffer = self._buffer(self._recv_buffers, call.args[0], "recv_buffer")
        if RECV_HEADER_SIZE + len(data.payload) > buffer.size:
            raise SandboxError(
                f"received {len(data.payload)} bytes exceed buffer {buffer.name}"
            )
        header = _RECV_HEADER.pack(
            data.contact_index, data.src_port, data.seq, data.recv_time_us
        )
        self.vm.write_memory(buffer.offset, header + data.payload)


NativeBody = Generator[tuple, tuple, int]


class NativeProgram(RunnableProgram):
    """An unsandboxed program: a generator yielding host-op tuples.

    The generator yields ``(op, args, payload)`` and receives
    ``(result, data)`` back at each yield; its ``return`` value becomes the
    program result. Example::

        def body():
            t, _ = yield ("now_us", (), None)
            _ = yield ("net_send", (17, 0, 7, 1, 64), b"x" * 64)
            return 0
    """

    is_sandboxed = False

    def __init__(self, body_factory: Callable[[], NativeBody]) -> None:
        self._generator = body_factory()
        self._started = False

    def begin(self, args: list[int] | None = None) -> Step:
        if self._started:
            raise SandboxError("program already started")
        self._started = True
        try:
            yielded = next(self._generator)
        except StopIteration as stop:
            return Done(stop.value if stop.value is not None else 0)
        return self._check(yielded)

    def resume(self, result: int, data: ReceivedData | None = None) -> Step:
        try:
            yielded = self._generator.send((result, data))
        except StopIteration as stop:
            return Done(stop.value if stop.value is not None else 0)
        return self._check(yielded)

    @staticmethod
    def _check(yielded: tuple) -> HostCall:
        if not (isinstance(yielded, tuple) and len(yielded) == 3):
            raise SandboxError(f"native program yielded malformed op: {yielded!r}")
        op, args, payload = yielded
        if op not in HOST_OPS:
            raise SandboxError(f"native program yielded unknown op {op!r}")
        return HostCall(op, tuple(int(a) for a in args), payload)
