"""Runnable programs: the executor-facing interface for Debuglets.

An executor drives a program as a sequence of *steps*: it begins the
program, receives :class:`ProgramCall` requests (host operations), performs
them against the simulated network, and resumes the program with results
until :class:`ProgramDone`.

Two implementations exist:

- :class:`VMProgram` — sandboxed bytecode in the :class:`~repro.sandbox.vm.VM`
  (the paper's WebAssembly Debuglets). Marshals payloads between host calls
  and the module's declared buffers.
- :class:`NativeProgram` — a plain Python generator using the same host
  ops (the paper's native Go applications, the A2A baseline of Fig 8).
  No metering, no memory isolation, no host-switch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from repro.common.errors import SandboxError
from repro.sandbox.hostops import HOST_OPS, RECV_HEADER_SIZE, protocol_from_number
from repro.sandbox.module import Module
from repro.sandbox.vm import VM, Done, HostCall


@dataclass
class ReceivedData:
    """What a successful ``net_recv`` hands back to the program."""

    contact_index: int
    src_port: int
    seq: int
    recv_time_us: int
    payload: bytes


@dataclass
class ProgramCall:
    """A host operation the program wants performed."""

    op: str
    args: tuple[int, ...]
    payload: bytes | None = None  # outgoing bytes for net_send / result_bytes


@dataclass
class ProgramDone:
    """The program finished with ``run_debuglet``'s return value."""

    value: int


Step = ProgramCall | ProgramDone


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
#: on the compiled tier by default (DESIGN.md §7). Benchmarks flip this
#: to "reference" to measure the interpreter baseline.
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
        if self._pending is None:
            raise SandboxError("program is not awaiting a host call")
        call = self._pending
        self._pending = None
        if call.name == "net_recv" and data is not None:
            self._write_received(call, data)
        return self._translate(self.vm.resume([result]))

    def _translate(self, step: HostCall | Done) -> Step:
        if isinstance(step, Done):
            return ProgramDone(step.value)
        self._pending = step
        payload = self._outgoing_payload(step)
        return ProgramCall(step.name, step.args, payload)

    def _outgoing_payload(self, call: HostCall) -> bytes | None:
        if call.name == "net_send":
            proto = protocol_from_number(call.args[0])
            size = call.args[4]
            buffer = self.module.buffer(
                f"{proto.name.lower()}_send_buffer", "send_buffer"
            )
            if size < 0 or size > buffer.size:
                raise SandboxError(
                    f"net_send size {size} exceeds buffer {buffer.name}"
                )
            return self.vm.read_memory(buffer.offset, size)
        if call.name == "result_bytes":
            offset, length = call.args
            return self.vm.read_memory(offset, length)
        return None

    def _write_received(self, call: HostCall, data: ReceivedData) -> None:
        proto = protocol_from_number(call.args[0])
        buffer = self.module.buffer(
            f"{proto.name.lower()}_recv_buffer", "recv_buffer"
        )
        needed = RECV_HEADER_SIZE + len(data.payload)
        if needed > buffer.size:
            raise SandboxError(
                f"received {len(data.payload)} bytes exceed buffer {buffer.name}"
            )
        header = b"".join(
            value.to_bytes(8, "little", signed=True)
            for value in (
                data.contact_index,
                data.src_port,
                data.seq,
                data.recv_time_us,
            )
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
            return ProgramDone(stop.value if stop.value is not None else 0)
        return self._check(yielded)

    def resume(self, result: int, data: ReceivedData | None = None) -> Step:
        try:
            yielded = self._generator.send((result, data))
        except StopIteration as stop:
            return ProgramDone(stop.value if stop.value is not None else 0)
        return self._check(yielded)

    @staticmethod
    def _check(yielded: tuple) -> ProgramCall:
        if not (isinstance(yielded, tuple) and len(yielded) == 3):
            raise SandboxError(f"native program yielded malformed op: {yielded!r}")
        op, args, payload = yielded
        if op not in HOST_OPS:
            raise SandboxError(f"native program yielded unknown op {op!r}")
        return ProgramCall(op, tuple(int(a) for a in args), payload)
