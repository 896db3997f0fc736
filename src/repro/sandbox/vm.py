"""The Debuglet virtual machine.

Executes a :class:`~repro.sandbox.module.Module` with:

- **memory safety** — every load/store is bounds-checked against the
  module's linear memory (:class:`MemoryFault` on violation);
- **bounded execution** — every instruction burns fuel; exceeding the
  budget raises :class:`FuelExhausted` (the manifest's CPU limit);
- **no ambient authority** — the only way out is a ``HOST`` instruction,
  which *suspends* the machine and surfaces a :class:`HostCall` to the
  embedder. The embedder (the executor) performs the operation and
  resumes the machine with the results.

This mirrors how the paper's Go executor embeds Wasmer: WA code blocks on
imported host functions that bridge to real sockets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SandboxError
from repro.common.errors import FuelExhausted, MemoryFault
from repro.sandbox.hostops import HOST_OPS
from repro.sandbox.isa import FUEL_COST, Op
from repro.sandbox.module import ENTRY_POINT, Module

_MASK = (1 << 64) - 1
_SIGN = 1 << 63

#: host-op arities resolved once at module load, not per call (hot path).
_HOST_ARITY = {name: spec[0] for name, spec in HOST_OPS.items()}
_HOST_RESULTS = {name: spec[1] for name, spec in HOST_OPS.items()}

#: the compiled tier (repro.sandbox.compile), imported on first use so the
#: reference interpreter stays importable without the verifier stack.
_compile_mod = None


def _compiled_tier():
    global _compile_mod
    if _compile_mod is None:
        from repro.sandbox import compile as module

        _compile_mod = module
    return _compile_mod


def _wrap(value: int) -> int:
    return value & _MASK


def _signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 64) if value & _SIGN else value


@dataclass
class HostCall:
    """A suspended host-function invocation."""

    name: str
    args: tuple[int, ...]


@dataclass
class Done:
    """The entry point returned ``value``."""

    value: int


@dataclass
class _Frame:
    function_name: str
    pc: int
    locals: list[int]
    stack_floor: int  # value-stack depth at call time


class VM:
    """A resumable interpreter for one module instance.

    Usage::

        vm = VM(module, fuel_limit=1_000_000)
        step = vm.start([arg0, ...])
        while isinstance(step, HostCall):
            results = embedder.perform(step, vm)   # may take simulated time
            step = vm.resume(results)
        step.value  # Done

    ``fuel_used`` tracks total instructions (weighted) for CPU accounting.
    """

    MAX_STACK_DEPTH = 256
    MAX_VALUE_STACK = 65536

    def __init__(
        self, module: Module, *, fuel_limit: int = 10_000_000, obs=None,
        tier: str = "reference", compiled=None,
    ) -> None:
        module.validate()
        self.module = module
        self.fuel_limit = fuel_limit
        self.fuel_used = 0
        self.memory = bytearray(module.memory_size)
        self.globals = dict(module.globals)
        self._stack: list[int] = []
        self._frames: list[_Frame] = []
        self._floor = 0  # active frame's stack_floor, hoisted for _pop
        self._started = False
        self._finished = False
        self._awaiting_host: HostCall | None = None
        # Observability (repro.obs): recorded only at machine boundaries
        # (host calls, traps, completion) so the per-instruction dispatch
        # loop stays untouched.
        self._obs = obs
        # Compiled tier (repro.sandbox.compile). ``tier`` is one of
        # "reference" (always interpret), "auto" (compile when the static
        # proofs hold, else interpret) or "compiled" (refuse unprovable
        # modules). The interaction log backs the bail-to-replay fallback
        # that keeps trap semantics bit-identical.
        self._compiled = None
        self._delegate: "VM | None" = None
        self._gen = None
        self._action = None
        self._oplog: list[tuple] = []
        self.tier = "reference"
        if tier not in ("reference", "auto", "compiled"):
            raise SandboxError(f"unknown VM tier {tier!r}")
        if tier != "reference":
            compiled = (
                compiled if compiled is not None
                else _compiled_tier().get_compiled(module, obs=obs)
            )
            if compiled is None and tier == "compiled":
                # Ask once more, for the reason: the refusal is read off
                # the module's shared analysis, not derived again.
                try:
                    compiled = _compiled_tier().compile_module(module)
                except _compiled_tier().CompileUnsupported as exc:
                    raise SandboxError(
                        f"module is not provable for the compiled tier: {exc}"
                    ) from exc
            if compiled is not None:
                self._compiled = compiled
                self.tier = "compiled"

    # ------------------------------------------------------------ control

    def start(self, args: list[int] | None = None) -> "HostCall | Done":
        """Begin executing ``run_debuglet(*args)``."""
        if self._started:
            raise SandboxError("VM already started")
        self._started = True
        entry = self.module.functions[ENTRY_POINT]
        args = [int(a) for a in (args or [])]
        if len(args) != entry.n_params:
            raise SandboxError(
                f"{ENTRY_POINT} expects {entry.n_params} args, got {len(args)}"
            )
        locals_ = [_wrap(a) for a in args] + [0] * entry.n_locals
        if self._compiled is not None:
            def runner():
                return self._compiled_start(locals_, args)
        else:
            self._frames.append(_Frame(ENTRY_POINT, 0, locals_, 0))
            self._floor = 0
            runner = self._run
        if self._obs is None:
            return runner()
        return self._run_observed(runner)

    def resume(self, results: list[int] | None = None) -> "HostCall | Done":
        """Resume after a host call, pushing ``results`` onto the stack."""
        results = [int(value) for value in (results or [])]
        if self._delegate is not None:
            def runner():
                return self._delegated(lambda: self._delegate.resume(results))
        else:
            if self._awaiting_host is None:
                raise SandboxError("VM is not awaiting a host call")
            if self._compiled is not None:
                def runner():
                    return self._compiled_resume(results)
            else:
                self._awaiting_host = None
                for value in results:
                    self._push(_wrap(value))
                runner = self._run
        if self._obs is None:
            return runner()
        return self._run_observed(runner)

    # ------------------------------------------------------ compiled tier

    def _compiled_start(self, locals_: list[int], raw_args: list[int]):
        self._oplog.append(("start", raw_args))
        self._gen = _compile_mod.run_frame(self, self._compiled.entry, locals_)
        return self._advance(self._gen.__next__)

    def _compiled_resume(self, results: list[int]):
        call = self._awaiting_host
        self._oplog.append(("resume", results))
        if (
            len(results) != _HOST_RESULTS[call.name]
            or len(self._stack) + len(results) > self.MAX_VALUE_STACK
        ):
            # Outside the statically-proven envelope (embedder misuse);
            # let the reference tier produce the exact outcome.
            return self._fallback_replay()
        self._awaiting_host = None
        return self._advance(lambda: self._gen.send(results))

    def _advance(self, advancer):
        """One compiled step: run threaded code to the next boundary."""
        try:
            step = advancer()
        except StopIteration as stop:
            self._finished = True
            value = stop.value if stop.value is not None else 0
            return Done(_signed(value))
        except (_compile_mod._Bail, SandboxError, IndexError):
            # A trap is due (fuel, division, bounds, misuse). Replay the
            # session on the reference tier for exact trap semantics.
            self._gen = None
            return self._fallback_replay()
        self._awaiting_host = step
        return step

    def _fallback_replay(self):
        """Replay the interaction log on a fresh reference interpreter.

        Every op before the current one completed without trapping on
        the compiled tier, so (by the equivalence contract) the replay
        reaches the same state; the final op then produces the exact
        reference outcome — result or trap — and the delegate handles
        the session from here on.
        """
        delegate = VM(self.module, fuel_limit=self.fuel_limit)
        self._delegate = delegate
        self._compiled = None
        self._gen = None
        log, self._oplog = self._oplog, []
        try:
            for kind, payload in log[:-1]:
                if kind == "start":
                    delegate.start(payload)
                elif kind == "resume":
                    delegate.resume(payload)
                else:
                    delegate.write_memory(payload[0], payload[1])
            kind, payload = log[-1]
            if kind == "start":
                return delegate.start(payload)
            return delegate.resume(payload)
        finally:
            self._sync_delegate()

    def _delegated(self, fn):
        try:
            return fn()
        finally:
            self._sync_delegate()

    def _sync_delegate(self) -> None:
        delegate = self._delegate
        self.fuel_used = delegate.fuel_used
        self.memory = delegate.memory
        self.globals = delegate.globals
        self._stack = delegate._stack
        self._frames = delegate._frames
        self._floor = delegate._floor
        self._finished = delegate._finished
        self._awaiting_host = delegate._awaiting_host

    def _run_observed(self, runner) -> "HostCall | Done":
        """Boundary instrumentation: host-op counts, traps, final fuel."""
        obs = self._obs
        try:
            step = runner()
        except SandboxError as exc:
            kind = type(exc).__name__
            obs.metrics.counter("vm_traps_total", kind=kind).inc()
            obs.tracer.event(
                "vm.trap", component="vm", kind=kind,
                function=self._frames[-1].function_name if self._frames else "",
                fuel_used=self.fuel_used,
            )
            raise
        if isinstance(step, HostCall):
            obs.metrics.counter("vm_host_calls_total", op=step.name).inc()
        else:
            obs.metrics.counter("vm_runs_completed_total").inc()
            obs.metrics.histogram("vm_fuel_used").observe(self.fuel_used)
        return step

    @property
    def finished(self) -> bool:
        return self._finished

    # ----------------------------------------------------------- memory

    def read_memory(self, offset: int, length: int) -> bytes:
        """Embedder access to linear memory (bounds-checked)."""
        self._check_bounds(offset, length)
        return bytes(self.memory[offset : offset + length])

    def write_memory(self, offset: int, data: bytes) -> None:
        self._check_bounds(offset, len(data))
        if self._compiled is not None:
            # Part of the session's observable inputs: must be replayed
            # if the compiled tier later bails to the reference tier.
            self._oplog.append(("write", (offset, bytes(data))))
        self.memory[offset : offset + len(data)] = data

    def _check_bounds(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > len(self.memory):
            raise MemoryFault(
                f"access [{offset}, {offset + length}) outside memory of "
                f"{len(self.memory)} bytes"
            )

    # -------------------------------------------------------- interpreter

    def _push(self, value: int) -> None:
        if len(self._stack) >= self.MAX_VALUE_STACK:
            raise SandboxError("value stack overflow")
        self._stack.append(value)

    def _pop(self) -> int:
        # ``_floor`` mirrors the active frame's stack_floor (maintained at
        # call/return) so the hot underflow check needs no frame lookup.
        if len(self._stack) <= self._floor:
            raise SandboxError("value stack underflow")
        return self._stack.pop()

    def _run(self) -> "HostCall | Done":
        if self._finished:
            raise SandboxError("VM already finished")
        stack = self._stack
        functions = self.module.functions
        fuel_cost = FUEL_COST

        while True:
            frame = self._frames[-1]
            code = functions[frame.function_name].code
            if frame.pc >= len(code):
                # Falling off the end returns 0 (implicit).
                result = self._return_value_or_zero(frame)
                step = self._pop_frame(result)
                if step is not None:
                    return step
                continue
            instruction = code[frame.pc]
            op = instruction.op

            self.fuel_used += fuel_cost[op]
            if self.fuel_used > self.fuel_limit:
                raise FuelExhausted(
                    f"fuel limit {self.fuel_limit} exceeded in {frame.function_name}"
                )

            frame.pc += 1
            arg = instruction.arg

            if op is Op.PUSH:
                self._push(_wrap(arg))
            elif op is Op.DROP:
                self._pop()
            elif op is Op.DUP:
                value = self._pop()
                self._push(value)
                self._push(value)
            elif op is Op.SWAP:
                b, a = self._pop(), self._pop()
                self._push(b)
                self._push(a)
            elif op is Op.ADD:
                b, a = self._pop(), self._pop()
                self._push(_wrap(a + b))
            elif op is Op.SUB:
                b, a = self._pop(), self._pop()
                self._push(_wrap(a - b))
            elif op is Op.MUL:
                b, a = self._pop(), self._pop()
                self._push(_wrap(a * b))
            elif op is Op.DIVS:
                b, a = _signed(self._pop()), _signed(self._pop())
                if b == 0:
                    raise SandboxError("integer division by zero")
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                self._push(_wrap(quotient))
            elif op is Op.REMS:
                b, a = _signed(self._pop()), _signed(self._pop())
                if b == 0:
                    raise SandboxError("integer remainder by zero")
                remainder = abs(a) % abs(b)
                if a < 0:
                    remainder = -remainder
                self._push(_wrap(remainder))
            elif op is Op.AND:
                b, a = self._pop(), self._pop()
                self._push(a & b)
            elif op is Op.OR:
                b, a = self._pop(), self._pop()
                self._push(a | b)
            elif op is Op.XOR:
                b, a = self._pop(), self._pop()
                self._push(a ^ b)
            elif op is Op.SHL:
                b, a = self._pop(), self._pop()
                self._push(_wrap(a << (b & 63)))
            elif op is Op.SHRU:
                b, a = self._pop(), self._pop()
                self._push((a & _MASK) >> (b & 63))
            elif op is Op.EQ:
                b, a = self._pop(), self._pop()
                self._push(1 if a == b else 0)
            elif op is Op.NE:
                b, a = self._pop(), self._pop()
                self._push(1 if a != b else 0)
            elif op is Op.LTS:
                b, a = _signed(self._pop()), _signed(self._pop())
                self._push(1 if a < b else 0)
            elif op is Op.GTS:
                b, a = _signed(self._pop()), _signed(self._pop())
                self._push(1 if a > b else 0)
            elif op is Op.LES:
                b, a = _signed(self._pop()), _signed(self._pop())
                self._push(1 if a <= b else 0)
            elif op is Op.GES:
                b, a = _signed(self._pop()), _signed(self._pop())
                self._push(1 if a >= b else 0)
            elif op is Op.EQZ:
                self._push(1 if self._pop() == 0 else 0)
            elif op is Op.LOCAL_GET:
                self._push(frame.locals[self._local_index(frame, arg)])
            elif op is Op.LOCAL_SET:
                frame.locals[self._local_index(frame, arg)] = self._pop()
            elif op is Op.LOCAL_TEE:
                value = self._pop()
                frame.locals[self._local_index(frame, arg)] = value
                self._push(value)
            elif op is Op.GLOBAL_GET:
                self._push(self.globals[arg])
            elif op is Op.GLOBAL_SET:
                self.globals[arg] = self._pop()
            elif op is Op.LOAD8:
                addr = _signed(self._pop())
                self._check_bounds(addr, 1)
                self._push(self.memory[addr])
            elif op is Op.STORE8:
                value = self._pop()
                addr = _signed(self._pop())
                self._check_bounds(addr, 1)
                self.memory[addr] = value & 0xFF
            elif op is Op.LOAD64:
                addr = _signed(self._pop())
                self._check_bounds(addr, 8)
                self._push(int.from_bytes(self.memory[addr : addr + 8], "little"))
            elif op is Op.STORE64:
                value = self._pop()
                addr = _signed(self._pop())
                self._check_bounds(addr, 8)
                self.memory[addr : addr + 8] = value.to_bytes(8, "little")
            elif op is Op.JMP:
                frame.pc = arg
            elif op is Op.JZ:
                if self._pop() == 0:
                    frame.pc = arg
            elif op is Op.JNZ:
                if self._pop() != 0:
                    frame.pc = arg
            elif op is Op.CALL:
                callee = functions[arg]
                if len(self._frames) >= self.MAX_STACK_DEPTH:
                    raise SandboxError("call stack overflow")
                call_args = [self._pop() for _ in range(callee.n_params)]
                call_args.reverse()
                locals_ = call_args + [0] * callee.n_locals
                self._frames.append(_Frame(arg, 0, locals_, len(stack)))
                self._floor = len(stack)
            elif op is Op.RET:
                result = self._pop()
                step = self._pop_frame(result)
                if step is not None:
                    return step
            elif op is Op.HOST:
                call = self._collect_host_call(arg)
                self._awaiting_host = call
                return call
            elif op is Op.NOP:
                pass
            else:  # pragma: no cover - exhaustive
                raise SandboxError(f"unhandled opcode {op}")

    def _local_index(self, frame: _Frame, arg: int) -> int:
        if not 0 <= arg < len(frame.locals):
            raise SandboxError(
                f"local index {arg} out of range in {frame.function_name}"
            )
        return arg

    def _return_value_or_zero(self, frame: _Frame) -> int:
        if len(self._stack) > frame.stack_floor:
            return self._stack.pop()
        return 0

    def _pop_frame(self, result: int) -> "Done | None":
        frame = self._frames.pop()
        del self._stack[frame.stack_floor :]
        if not self._frames:
            self._finished = True
            return Done(_signed(result))
        self._floor = self._frames[-1].stack_floor
        self._push(result)
        return None

    def _collect_host_call(self, name: str) -> HostCall:
        n_args = _HOST_ARITY.get(name)
        if n_args is None:
            raise SandboxError(f"unknown host operation {name!r}")
        args = [self._pop() for _ in range(n_args)]
        args.reverse()
        return HostCall(name, tuple(_signed(a) for a in args))
