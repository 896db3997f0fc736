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

On the reference tier each function is decoded once per module into
``(handler, arg, fuel)`` rows, one small handler per opcode (``_decode``),
and ``_run`` charges a row's fuel and then calls its handler. The tier
reads no verifier facts and elides no check: it is the independent
re-execution that audits and the compiled tier's bail-to-replay rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from repro.common.errors import SandboxError
from repro.common.errors import FuelExhausted, MemoryFault
from repro.sandbox.hostops import HOST_OPS
from repro.sandbox.isa import FUEL_COST, Op
from repro.sandbox.module import ENTRY_POINT, Module

_MASK = (1 << 64) - 1
_SIGN = 1 << 63

#: frame and value-stack ceilings (``VM.MAX_STACK_DEPTH`` /
#: ``VM.MAX_VALUE_STACK``), as module constants for the handlers.
_MAX_FRAMES = 256
_MAX_VALUES = 65536

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


class _Frame:
    """One activation of a function on the reference tier."""

    __slots__ = ("function_name", "pc", "locals", "stack_floor", "code")

    def __init__(self, function_name: str, pc: int, locals_: list[int],
                 stack_floor: int, code: list[tuple]) -> None:
        self.function_name = function_name
        self.pc = pc
        self.locals = locals_
        self.stack_floor = stack_floor  # value-stack depth at call time
        self.code = code  # the function's decoded rows


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

    MAX_STACK_DEPTH = _MAX_FRAMES
    MAX_VALUE_STACK = _MAX_VALUES

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
        self._floor = 0  # active frame's stack_floor, for underflow checks
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
            rows = _decode(self.module)[ENTRY_POINT]
            self._frames.append(_Frame(ENTRY_POINT, 0, locals_, 0, rows))
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
                stack = self._stack
                for value in results:
                    if len(stack) >= _MAX_VALUES:
                        raise SandboxError("value stack overflow")
                    stack.append(_wrap(value))
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

    def _run(self) -> "HostCall | Done":
        """Dispatch decoded rows until a host call, completion or trap.

        Fuel is charged per instruction, before its handler runs. The
        running total is kept in a local and written back on every exit,
        including a trap.
        """
        if self._finished:
            raise SandboxError("VM already finished")
        stack = self._stack
        frame = self._frames[-1]
        code = frame.code
        limit = self.fuel_limit
        fuel = self.fuel_used
        try:
            while True:
                pc = frame.pc
                handler, arg, cost = code[pc]
                fuel += cost
                # falling off the end is free, and so never refused
                if fuel > limit and handler is not _fall:
                    raise FuelExhausted(
                        f"fuel limit {limit} exceeded in {frame.function_name}"
                    )
                frame.pc = pc + 1
                step = handler(self, stack, frame, arg)
                if step is not None:
                    if step is not _SWITCH:
                        return step
                    frame = self._frames[-1]
                    code = frame.code
        finally:
            self.fuel_used = fuel


# --------------------------------------------------------- decoded handlers
#
# One function per opcode, ``handler(vm, stack, frame, arg)``. Each makes
# its opcode's runtime checks in the order the semantics fix them, so a
# trap has one type, message and partial effect: an instruction that
# underflows has popped every operand above the frame's floor, as an
# operand-at-a-time interpreter would (tests/sandbox/vm_reference.py keeps
# one). A push right after a pop cannot overflow, so only net pushes test
# the ceiling. A handler returns None to continue, ``_SWITCH`` when the
# active frame changed, or the ``HostCall`` / ``Done`` that ends the run.

_SWITCH = object()


def _underflow(vm: VM, stack: list[int]) -> NoReturn:
    del stack[vm._floor:]
    raise SandboxError("value stack underflow")


def _bad_local(frame: _Frame, index: int) -> NoReturn:
    raise SandboxError(
        f"local index {index} out of range in {frame.function_name}"
    )


def _h_push(vm, stack, frame, arg):
    if len(stack) >= _MAX_VALUES:
        raise SandboxError("value stack overflow")
    stack.append(arg)


def _h_drop(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    stack.pop()


def _h_dup(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    if len(stack) >= _MAX_VALUES:
        raise SandboxError("value stack overflow")
    stack.append(stack[-1])


def _h_swap(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    stack[-1], stack[-2] = stack[-2], stack[-1]


def _h_add(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = (stack[-1] + b) & _MASK


def _h_sub(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = (stack[-1] - b) & _MASK


def _h_mul(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = (stack[-1] * b) & _MASK


def _h_divs(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = _signed(stack.pop())
    a = _signed(stack.pop())
    if b == 0:
        raise SandboxError("integer division by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    stack.append(quotient & _MASK)


def _h_rems(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = _signed(stack.pop())
    a = _signed(stack.pop())
    if b == 0:
        raise SandboxError("integer remainder by zero")
    remainder = abs(a) % abs(b)
    if a < 0:
        remainder = -remainder
    stack.append(remainder & _MASK)


def _h_and(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = stack[-1] & b


def _h_or(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = stack[-1] | b


def _h_xor(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = stack[-1] ^ b


def _h_shl(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = (stack[-1] << (b & 63)) & _MASK


def _h_shru(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = (stack[-1] & _MASK) >> (b & 63)


def _h_eq(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = 1 if stack[-1] == b else 0


def _h_ne(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = stack.pop()
    stack[-1] = 1 if stack[-1] != b else 0


def _h_lts(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = _signed(stack.pop())
    stack[-1] = 1 if _signed(stack[-1]) < b else 0


def _h_gts(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = _signed(stack.pop())
    stack[-1] = 1 if _signed(stack[-1]) > b else 0


def _h_les(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = _signed(stack.pop())
    stack[-1] = 1 if _signed(stack[-1]) <= b else 0


def _h_ges(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    b = _signed(stack.pop())
    stack[-1] = 1 if _signed(stack[-1]) >= b else 0


def _h_eqz(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    stack[-1] = 1 if stack[-1] == 0 else 0


def _h_local_get(vm, stack, frame, arg):
    locals_ = frame.locals
    if not 0 <= arg < len(locals_):
        _bad_local(frame, arg)
    if len(stack) >= _MAX_VALUES:
        raise SandboxError("value stack overflow")
    stack.append(locals_[arg])


def _h_local_set(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    value = stack.pop()
    if not 0 <= arg < len(frame.locals):
        _bad_local(frame, arg)
    frame.locals[arg] = value


def _h_local_tee(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    value = stack.pop()
    if not 0 <= arg < len(frame.locals):
        _bad_local(frame, arg)
    frame.locals[arg] = value
    stack.append(value)


def _h_global_get(vm, stack, frame, arg):
    value = vm.globals[arg]
    if len(stack) >= _MAX_VALUES:
        raise SandboxError("value stack overflow")
    stack.append(value)


def _h_global_set(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    vm.globals[arg] = stack.pop()


def _h_load8(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    addr = _signed(stack.pop())
    vm._check_bounds(addr, 1)
    stack.append(vm.memory[addr])


def _h_store8(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    value = stack.pop()
    addr = _signed(stack.pop())
    vm._check_bounds(addr, 1)
    vm.memory[addr] = value & 0xFF


def _h_load64(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    addr = _signed(stack.pop())
    vm._check_bounds(addr, 8)
    stack.append(int.from_bytes(vm.memory[addr : addr + 8], "little"))


def _h_store64(vm, stack, frame, arg):
    if len(stack) <= vm._floor + 1:
        _underflow(vm, stack)
    value = stack.pop()
    addr = _signed(stack.pop())
    vm._check_bounds(addr, 8)
    vm.memory[addr : addr + 8] = value.to_bytes(8, "little")


def _h_jmp(vm, stack, frame, arg):
    frame.pc = arg


def _h_jz(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    if stack.pop() == 0:
        frame.pc = arg


def _h_jnz(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    if stack.pop() != 0:
        frame.pc = arg


def _h_call(vm, stack, frame, arg):
    name, n_params, n_locals, code = arg
    frames = vm._frames
    if len(frames) >= _MAX_FRAMES:
        raise SandboxError("call stack overflow")
    base = len(stack) - n_params
    if base < vm._floor:
        _underflow(vm, stack)
    locals_ = stack[base:]
    del stack[base:]
    locals_ += [0] * n_locals
    frames.append(_Frame(name, 0, locals_, base, code))
    vm._floor = base
    return _SWITCH


def _leave(vm: VM, stack: list[int], result: int):
    """Pop the active frame and hand ``result`` to its caller."""
    frames = vm._frames
    frame = frames.pop()
    del stack[frame.stack_floor:]
    if not frames:
        vm._finished = True
        return Done(_signed(result))
    vm._floor = frames[-1].stack_floor
    if len(stack) >= _MAX_VALUES:
        raise SandboxError("value stack overflow")
    stack.append(result)
    return _SWITCH


def _h_ret(vm, stack, frame, arg):
    if len(stack) <= vm._floor:
        _underflow(vm, stack)
    return _leave(vm, stack, stack.pop())


def _fall(vm, stack, frame, arg):
    """Past the last instruction: return the top operand, or 0."""
    result = stack.pop() if len(stack) > frame.stack_floor else 0
    return _leave(vm, stack, result)


def _h_host(vm, stack, frame, arg):
    n_args = _HOST_ARITY.get(arg)
    if n_args is None:
        raise SandboxError(f"unknown host operation {arg!r}")
    base = len(stack) - n_args
    if base < vm._floor:
        _underflow(vm, stack)
    args = stack[base:]
    del stack[base:]
    call = HostCall(arg, tuple(map(_signed, args)))
    vm._awaiting_host = call
    return call


def _h_nop(vm, stack, frame, arg):
    return None


_HANDLERS = {
    Op.PUSH: _h_push, Op.DROP: _h_drop, Op.DUP: _h_dup, Op.SWAP: _h_swap,
    Op.ADD: _h_add, Op.SUB: _h_sub, Op.MUL: _h_mul,
    Op.DIVS: _h_divs, Op.REMS: _h_rems,
    Op.AND: _h_and, Op.OR: _h_or, Op.XOR: _h_xor,
    Op.SHL: _h_shl, Op.SHRU: _h_shru,
    Op.EQ: _h_eq, Op.NE: _h_ne, Op.LTS: _h_lts, Op.GTS: _h_gts,
    Op.LES: _h_les, Op.GES: _h_ges, Op.EQZ: _h_eqz,
    Op.LOCAL_GET: _h_local_get, Op.LOCAL_SET: _h_local_set,
    Op.LOCAL_TEE: _h_local_tee,
    Op.GLOBAL_GET: _h_global_get, Op.GLOBAL_SET: _h_global_set,
    Op.LOAD8: _h_load8, Op.STORE8: _h_store8,
    Op.LOAD64: _h_load64, Op.STORE64: _h_store64,
    Op.JMP: _h_jmp, Op.JZ: _h_jz, Op.JNZ: _h_jnz,
    Op.CALL: _h_call, Op.RET: _h_ret, Op.HOST: _h_host, Op.NOP: _h_nop,
}

#: ends every function's rows: falling off the end costs no fuel.
_FALL_ROW = (_fall, None, 0)


def _decode(module: Module) -> dict[str, list[tuple]]:
    """Each function's ``(handler, arg, fuel)`` rows, one per instruction.

    Built once per module and memoised on it, like ``Module.encoded``:
    modules are immutable once built. ``PUSH`` immediates are wrapped to
    64 bits here, and a ``CALL`` carries its callee's name, parameter and
    local counts, and rows. Nothing is read from the verifier.
    """
    table = module.__dict__.get("_decoded_cache")
    if table is None:
        functions = module.functions
        table = {name: [] for name in functions}
        for name, function in functions.items():
            rows = table[name]
            for instruction in function.code:
                op, arg = instruction.op, instruction.arg
                if op is Op.PUSH:
                    arg = _wrap(arg)
                elif op is Op.CALL:
                    callee = functions[arg]
                    arg = (arg, callee.n_params, callee.n_locals, table[arg])
                rows.append((_HANDLERS[op], arg, FUEL_COST[op]))
            rows.append(_FALL_ROW)
        module.__dict__["_decoded_cache"] = table
    return table
