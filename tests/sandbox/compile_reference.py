"""The compiled tier as it stood before code generation: threaded code.

``compile_module`` below translates a module into a flat list of bound
closures, one per instruction, each returning the index of the next,
with fuel charged once per block and the proven checks dropped; call
frames are Python generators over a shared operand list. It is kept
verbatim (only the process cache, which stays in
:mod:`repro.sandbox.compile`, is left out), and :class:`ThreadedVM` is
:class:`repro.sandbox.vm.VM` with the three compiled-tier hooks put back
as they drove it.

Never edit its logic: ``tests/properties/test_prop_tier_equivalence.py``
runs it beside the generated tier and the reference interpreter and
demands the same session from all three.
"""

from __future__ import annotations

import time

from repro.common.errors import SandboxError
from repro.sandbox.isa import Op
from repro.sandbox.module import ENTRY_POINT, Function, Module
from repro.sandbox.verifier.facts import (
    FactsUnavailable,
    FunctionFacts,
    StaticFacts,
    gather_facts,
)
from repro.sandbox.vm import VM, Done, HostCall, _signed
from tests.sandbox.hostop_shapes import _HOST_RESULTS

_MASK = (1 << 64) - 1
_SIGN = 1 << 63
_TWO64 = 1 << 64

#: frame actions a handler can request (``vm._action`` kinds).
_RET, _FALL, _CALL, _HOST = 0, 1, 2, 3
_RET_ACTION = (_RET, None, 0)
_FALL_ACTION = (_FALL, None, 0)


class _Bail(Exception):
    """The compiled tier hit (or is about to hit) a trap; replay on the
    reference interpreter for exact semantics."""


class CompileUnsupported(Exception):
    """The module cannot be proven safe for the compiled tier."""


class CompiledFunction:
    """One function's threaded code."""

    __slots__ = ("name", "n_params", "n_locals", "code")

    def __init__(self, name: str, n_params: int, n_locals: int) -> None:
        self.name = name
        self.n_params = n_params
        self.n_locals = n_locals
        self.code: list = []


class CompiledModule:
    """A module translated to threaded code, shareable across VMs.

    Handlers close over immutable compile-time data only (immediates,
    jump targets, callee references); all mutable machine state arrives
    as arguments, so one ``CompiledModule`` safely backs any number of
    concurrently-running VM instances.
    """

    __slots__ = ("code_hash", "functions", "entry", "compile_seconds",
                 "value_stack_peak", "call_depth", "elided_checks",
                 "elided_const", "elided_ranged")

    def __init__(self, code_hash: bytes, functions: dict[str, CompiledFunction],
                 facts: StaticFacts) -> None:
        self.code_hash = code_hash
        self.functions = functions
        self.entry = functions[ENTRY_POINT]
        self.compile_seconds = 0.0
        self.value_stack_peak = facts.value_stack_peak
        self.call_depth = facts.call_depth
        self.elided_const = sum(
            len(f.safe_accesses) for f in facts.functions.values()
        )
        self.elided_ranged = sum(
            len(f.inbounds_accesses) for f in facts.functions.values()
        )
        self.elided_checks = self.elided_const + self.elided_ranged


def run_frame(vm, cf: CompiledFunction, locals_: list):
    """Execute one frame of threaded code as a generator.

    Yields :class:`~repro.sandbox.vm.HostCall` at suspension points and
    receives the result list back via ``send``; returns the frame's
    (wrapped) return value. Mirrors the reference tier's frame
    discipline: the value stack is truncated to the frame's floor on
    every exit.
    """
    stack = vm._stack
    memory = vm.memory
    code = cf.code
    floor = len(stack)
    ip = 0
    while True:
        while ip >= 0:
            ip = code[ip](vm, stack, locals_, memory)
        kind, payload, resume_ip = vm._action
        if kind == _RET:
            value = stack.pop()
            del stack[floor:]
            return value
        if kind == _FALL:
            value = stack.pop() if len(stack) > floor else 0
            del stack[floor:]
            return value
        if kind == _CALL:
            base = len(stack) - payload.n_params
            callee_locals = stack[base:]
            del stack[base:]
            if payload.n_locals:
                callee_locals.extend([0] * payload.n_locals)
            stack.append((yield from run_frame(vm, payload, callee_locals)))
        else:  # _HOST
            results = yield payload
            for value in results:
                stack.append(int(value) & _MASK)
        ip = resume_ip


# --------------------------------------------------------- handler factories


def _fall(vm, stack, locals_, memory):
    vm._action = _FALL_ACTION
    return -1


def _ret(vm, stack, locals_, memory):
    vm._action = _RET_ACTION
    return -1


def _make_fuel(cost: int, nxt: int):
    def fuel(vm, stack, locals_, memory):
        used = vm.fuel_used + cost
        if used > vm.fuel_limit:
            raise _Bail
        vm.fuel_used = used
        return nxt
    return fuel


def _make_handler(module: Module, instruction, nxt: int, target: int | None,
                  safe_addr: int | None, ranged: bool,
                  functions: dict[str, CompiledFunction]):
    """Build the closure for one instruction.

    ``nxt`` is the threaded-code index of the fallthrough successor,
    ``target`` the remapped jump target (branches only), ``safe_addr``
    the proven-constant address for elidable memory accesses. ``ranged``
    means the interval analysis proved the (dynamic) address lies wholly
    inside memory: the handler keeps the computed address but skips the
    sign fix-up and bounds check — a proven-in-range address is
    non-negative, so its unsigned stack encoding is the address itself.
    """
    op = instruction.op
    arg = instruction.arg
    size = module.memory_size

    if op is Op.PUSH:
        k = int(arg) & _MASK

        def h(vm, stack, locals_, memory):
            stack.append(k)
            return nxt
    elif op is Op.DROP:
        def h(vm, stack, locals_, memory):
            del stack[-1]
            return nxt
    elif op is Op.DUP:
        def h(vm, stack, locals_, memory):
            stack.append(stack[-1])
            return nxt
    elif op is Op.SWAP:
        def h(vm, stack, locals_, memory):
            stack[-1], stack[-2] = stack[-2], stack[-1]
            return nxt
    elif op is Op.ADD:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] = (stack[-1] + b) & _MASK
            return nxt
    elif op is Op.SUB:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] = (stack[-1] - b) & _MASK
            return nxt
    elif op is Op.MUL:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] = (stack[-1] * b) & _MASK
            return nxt
    elif op in (Op.DIVS, Op.REMS):
        is_div = op is Op.DIVS

        def h(vm, stack, locals_, memory):
            b = stack.pop()
            a = stack[-1]
            if a >= _SIGN:
                a -= _TWO64
            if b >= _SIGN:
                b -= _TWO64
            if b == 0:
                raise _Bail
            if is_div:
                value = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    value = -value
            else:
                value = abs(a) % abs(b)
                if a < 0:
                    value = -value
            stack[-1] = value & _MASK
            return nxt
    elif op is Op.AND:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] &= b
            return nxt
    elif op is Op.OR:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] |= b
            return nxt
    elif op is Op.XOR:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] ^= b
            return nxt
    elif op is Op.SHL:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] = (stack[-1] << (b & 63)) & _MASK
            return nxt
    elif op is Op.SHRU:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] = stack[-1] >> (b & 63)
            return nxt
    elif op is Op.EQ:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] == b else 0
            return nxt
    elif op is Op.NE:
        def h(vm, stack, locals_, memory):
            b = stack.pop()
            stack[-1] = 1 if stack[-1] != b else 0
            return nxt
    elif op in (Op.LTS, Op.GTS, Op.LES, Op.GES):
        kind = op

        def h(vm, stack, locals_, memory):
            b = stack.pop()
            a = stack[-1]
            if a >= _SIGN:
                a -= _TWO64
            if b >= _SIGN:
                b -= _TWO64
            if kind is Op.LTS:
                stack[-1] = 1 if a < b else 0
            elif kind is Op.GTS:
                stack[-1] = 1 if a > b else 0
            elif kind is Op.LES:
                stack[-1] = 1 if a <= b else 0
            else:
                stack[-1] = 1 if a >= b else 0
            return nxt
    elif op is Op.EQZ:
        def h(vm, stack, locals_, memory):
            stack[-1] = 0 if stack[-1] else 1
            return nxt
    elif op is Op.LOCAL_GET:
        i = int(arg)

        def h(vm, stack, locals_, memory):
            stack.append(locals_[i])
            return nxt
    elif op is Op.LOCAL_SET:
        i = int(arg)

        def h(vm, stack, locals_, memory):
            locals_[i] = stack.pop()
            return nxt
    elif op is Op.LOCAL_TEE:
        i = int(arg)

        def h(vm, stack, locals_, memory):
            locals_[i] = stack[-1]
            return nxt
    elif op is Op.GLOBAL_GET:
        name = arg

        def h(vm, stack, locals_, memory):
            stack.append(vm.globals[name])
            return nxt
    elif op is Op.GLOBAL_SET:
        name = arg

        def h(vm, stack, locals_, memory):
            vm.globals[name] = stack.pop()
            return nxt
    elif op is Op.LOAD8:
        if safe_addr is not None:
            k = safe_addr

            def h(vm, stack, locals_, memory):
                stack[-1] = memory[k]
                return nxt
        elif ranged:
            def h(vm, stack, locals_, memory):
                stack[-1] = memory[stack[-1]]
                return nxt
        else:
            def h(vm, stack, locals_, memory):
                a = stack[-1]
                if a >= _SIGN:
                    a -= _TWO64
                if a < 0 or a >= size:
                    raise _Bail
                stack[-1] = memory[a]
                return nxt
    elif op is Op.STORE8:
        if safe_addr is not None:
            k = safe_addr

            def h(vm, stack, locals_, memory):
                memory[k] = stack.pop() & 0xFF
                del stack[-1]
                return nxt
        elif ranged:
            def h(vm, stack, locals_, memory):
                value = stack.pop()
                memory[stack.pop()] = value & 0xFF
                return nxt
        else:
            def h(vm, stack, locals_, memory):
                value = stack.pop()
                a = stack.pop()
                if a >= _SIGN:
                    a -= _TWO64
                if a < 0 or a >= size:
                    raise _Bail
                memory[a] = value & 0xFF
                return nxt
    elif op is Op.LOAD64:
        limit = size - 8
        if safe_addr is not None:
            k, k_end = safe_addr, safe_addr + 8

            def h(vm, stack, locals_, memory):
                stack[-1] = int.from_bytes(memory[k:k_end], "little")
                return nxt
        elif ranged:
            def h(vm, stack, locals_, memory):
                a = stack[-1]
                stack[-1] = int.from_bytes(memory[a:a + 8], "little")
                return nxt
        else:
            def h(vm, stack, locals_, memory):
                a = stack[-1]
                if a >= _SIGN:
                    a -= _TWO64
                if a < 0 or a > limit:
                    raise _Bail
                stack[-1] = int.from_bytes(memory[a:a + 8], "little")
                return nxt
    elif op is Op.STORE64:
        limit = size - 8
        if safe_addr is not None:
            k, k_end = safe_addr, safe_addr + 8

            def h(vm, stack, locals_, memory):
                memory[k:k_end] = stack.pop().to_bytes(8, "little")
                del stack[-1]
                return nxt
        elif ranged:
            def h(vm, stack, locals_, memory):
                value = stack.pop()
                a = stack.pop()
                memory[a:a + 8] = value.to_bytes(8, "little")
                return nxt
        else:
            def h(vm, stack, locals_, memory):
                value = stack.pop()
                a = stack.pop()
                if a >= _SIGN:
                    a -= _TWO64
                if a < 0 or a > limit:
                    raise _Bail
                memory[a:a + 8] = value.to_bytes(8, "little")
                return nxt
    elif op is Op.JMP:
        t = target

        def h(vm, stack, locals_, memory):
            return t
    elif op is Op.JZ:
        t = target

        def h(vm, stack, locals_, memory):
            return t if stack.pop() == 0 else nxt
    elif op is Op.JNZ:
        t = target

        def h(vm, stack, locals_, memory):
            return t if stack.pop() != 0 else nxt
    elif op is Op.CALL:
        callee = functions[arg]
        action = (_CALL, callee, nxt)

        def h(vm, stack, locals_, memory):
            vm._action = action
            return -1
    elif op is Op.RET:
        return _ret
    elif op is Op.HOST:
        name = arg
        from tests.sandbox.hostop_shapes import HOST_OPS

        n_args = HOST_OPS[name][0]
        if n_args:
            def h(vm, stack, locals_, memory):
                base = len(stack) - n_args
                raw = stack[base:]
                del stack[base:]
                vm._action = (_HOST, HostCall(name, tuple(
                    (v - _TWO64) if v >= _SIGN else v for v in raw
                )), nxt)
                return -1
        else:
            def h(vm, stack, locals_, memory):
                vm._action = (_HOST, HostCall(name, ()), nxt)
                return -1
    elif op is Op.NOP:
        def h(vm, stack, locals_, memory):
            return nxt
    else:  # pragma: no cover - exhaustive over the ISA
        raise CompileUnsupported(f"unhandled opcode {op}")
    return h


def _translate_function(module: Module, function: Function, facts: FunctionFacts,
                        functions: dict[str, CompiledFunction]) -> list:
    """Lay out one function's threaded code.

    Layout: ``[fuel?, instr]*  fall`` — a synthetic fuel handler precedes
    the first instruction of every basic block, and a shared fall-off
    handler sits at the end. Jump targets are remapped to the target
    block's *fuel* handler so every block entry pays its fuel exactly
    once, matching the reference tier's per-instruction charging summed
    over the block.
    """
    code = function.code
    leaders = set(facts.leaders)
    entry_pos: dict[int, int] = {}
    instr_pos: dict[int, int] = {}
    cursor = 0
    for index in range(len(code)):
        if index in leaders:
            entry_pos[index] = cursor
            cursor += 1
        instr_pos[index] = cursor
        cursor += 1
    fall_pos = cursor

    def arrival(index: int) -> int:
        if index >= len(code):
            return fall_pos
        return entry_pos.get(index, instr_pos[index])

    out: list = [None] * (fall_pos + 1)
    for index, instruction in enumerate(code):
        if index in leaders:
            out[entry_pos[index]] = _make_fuel(
                facts.block_fuel[index], instr_pos[index]
            )
        target = None
        if instruction.op in (Op.JMP, Op.JZ, Op.JNZ):
            target = entry_pos[int(instruction.arg)]
        out[instr_pos[index]] = _make_handler(
            module, instruction, arrival(index + 1), target,
            facts.safe_accesses.get(index),
            index in facts.inbounds_accesses, functions,
        )
    out[fall_pos] = _fall
    return out


def compile_module(module: Module) -> CompiledModule:
    """Translate ``module`` to threaded code.

    Raises :class:`CompileUnsupported` when the static proofs the tier
    relies on are unavailable (the caller should use the reference tier).
    """
    started = time.perf_counter()
    try:
        facts = gather_facts(module)
    except FactsUnavailable as exc:
        raise CompileUnsupported(str(exc)) from exc
    functions = {
        name: CompiledFunction(name, f.n_params, f.n_locals)
        for name, f in module.functions.items()
    }
    for name, function in module.functions.items():
        functions[name].code = _translate_function(
            module, function, facts.functions[name], functions
        )
    compiled = CompiledModule(module.code_hash(), functions, facts)
    compiled.compile_seconds = time.perf_counter() - started
    return compiled


class ThreadedVM(VM):
    """``VM`` on the threaded tier: ``tier="compiled"`` always, with the
    translation above and the hooks that ran it."""

    def __init__(self, module: Module, *, fuel_limit: int = 10_000_000) -> None:
        super().__init__(module, fuel_limit=fuel_limit, tier="compiled",
                         compiled=compile_module(module))
        self._action = None

    def _compiled_start(self, args: list[int]):
        locals_ = [a & _MASK for a in args] + [0] * self._compiled.entry.n_locals
        self._oplog.append(("start", args))
        self._gen = run_frame(self, self._compiled.entry, locals_)
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
        except (_Bail, SandboxError, IndexError):
            # A trap is due (fuel, division, bounds, misuse). Replay the
            # session on the reference tier for exact trap semantics.
            self._gen = None
            return self._fallback_replay()
        self._awaiting_host = step
        return step
