"""The reference tier's dispatch loop as it stood before the decoded table.

:class:`ReferenceVM` is :class:`repro.sandbox.vm.VM` with the parent
commit's interpreter put back, verbatim: ``start`` and ``resume``, the
``if/elif`` chain in ``_run`` that re-decodes every instruction, fuel
charged through ``FUEL_COST[op]``, and operands moved through the
``_push``/``_pop`` methods, with the frame record it used. Everything
else (construction, memory access, the compiled tier, observability) is
inherited, so the two differ only in how an instruction is executed.

Never edit its logic: ``tests/properties/test_prop_reference_decode.py``
drives it and ``VM`` through the same sessions, on modules the verifier
would reject as well as ones it accepts, and demands the same host calls,
fuel at every suspension, result or trap, memory, globals, value stack
and frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import FuelExhausted, SandboxError
from repro.sandbox.isa import FUEL_COST, Op
from repro.sandbox.module import ENTRY_POINT
from repro.sandbox.vm import (
    _HOST_ARITY,
    _MASK,
    VM,
    Done,
    HostCall,
    _signed,
    _wrap,
)


@dataclass
class _Frame:
    function_name: str
    pc: int
    locals: list[int]
    stack_floor: int  # value-stack depth at call time


class ReferenceVM(VM):
    """The parent's reference interpreter (use with ``tier="reference"``)."""

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
