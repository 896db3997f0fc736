"""The compiled execution tier: one generated Python generator per function.

The reference interpreter (:class:`repro.sandbox.vm.VM`) dispatches on a
table decoded once per module, one row per instruction, and charges fuel
and makes every runtime check one instruction at a time. This module
translates a validated :class:`~repro.sandbox.module.Module` into Python
source, one ``def`` per Debuglet function, and compiles it:

- **locals and stack slots are Python locals** — local ``i`` is ``l<i>``
  and the operand at stack depth ``d`` is ``s<d>``. Depths are static
  (:attr:`FunctionFacts.depth_in`), so no operand list exists at run
  time. Within a block, operands that are pure arithmetic on locals,
  slots and immediates stay symbolic and are folded into the instruction
  that consumes them (``local_get 1; push 1; add; local_set 1`` becomes
  ``l1 = (_t - 2**64 if (_t := l1 + k0) > MASK else _t)``); loads,
  global reads, division and anything that crosses a block boundary are
  written to their slot at once.
- **fuel per block** — each basic block adds its summed fuel to a
  frame-local counter once and bails if the counter passes the limit.
  Blocks end at control transfers *and* at suspension points
  (``CALL``/``HOST``), and the counter is written back to
  ``vm.fuel_used`` before every ``yield``, ``yield from``, call and
  return (and read back after them), so ``fuel_used`` observed at any
  host-call boundary, completion or trap equals the reference tier's.
- **blocks** are branches of a ``while True`` dispatch on a block-index
  local; a function whose only loop is one region runs it as a bare
  ``while True`` with ``continue`` as its back edge.
- **calls and host calls** — ``CALL`` is ``yield from`` the callee's
  generator (or a plain call when the callee can never suspend) with the
  arguments as Python arguments; ``HOST`` yields a
  :class:`~repro.sandbox.vm.HostCall` and the ``send`` that resumes it
  carries the results.

**Every value the generated code holds is in [0, 2^64).** Its producers
are push immediates (masked in :func:`_bindings`), start arguments
(wrapped by the VM), loads (one byte, or one ``<Q`` struct unpack),
globals (:func:`~repro.sandbox.verifier.facts.gather_facts` refuses any
outside), division results and host results (both masked), and the ops
themselves. So arithmetic needs no big-int work: a sum is corrected by
one subtraction of 2^64 when it passes ``MASK``, a difference by one
addition when it is negative, a product is masked only when it is too
wide, and a signed comparison compares ``x - 2**64 if x >= 2**63 else
x``. Each form is exact for every operand in that range, whatever the
verifier's intervals say, and keeps small values small. A zero divisor
bails, and a load or store bails unless the verifier's intervals proved
it in range (``safe_accesses`` for a constant address,
``inbounds_accesses`` for a dynamic one).

**A wrong access proof traps; it never corrupts memory.** An access
whose check was elided indexes the ``bytearray`` (8-bit) or goes through
``struct``'s ``unpack_from``/``pack_into`` (64-bit), none of which can
change the memory's length or read short bytes: out of range they raise
one of :data:`ACCESS_FAULTS`, which the VM turns into a bail like any
other, so the replay below renders the reference tier's exact trap. The
VM records the bail's reason (``VM.bail_reason``) and, with
observability attached, counts it as ``vm_compile_access_faults_total``
— a series that appears only in a run whose proofs were wrong.

**No module text reaches** :func:`compile`. Every identifier in the
generated source is generated (``f3``, ``l2``, ``s0``, ``k7``), and the
only literals are integers the key below fixes. Push immediates, proven
constant addresses, global names and host-op names arrive as parameters
of an outer factory ``def``, bound per module; function names never
appear at all. The source executes with empty builtins, so it can reach
nothing it is not handed.

**One** :func:`compile` **per shape.** Modules that differ only in
push immediates (echo clients of two probe counts in one memory size)
differ in code hash, but not in shape. The factory is
memoised in an LRU of :data:`~repro.sandbox.module.CACHE_CAPACITY`
entries keyed by everything the generated text is a function of: the
instruction sequence with push immediates masked, memory size, function
names and arities, and per function the block leaders and fuel, entry
depths and the index sets of the proven accesses. A module that shares a
shape calls the cached factory with its own constants.

**Equivalence by replay** — any trap (fuel, division, out-of-bounds),
and any access fault, makes the compiled tier *bail*: the VM replays its
interaction log (start arguments, resume results, embedder memory
writes) on a fresh reference interpreter, which then produces the exact
trap type, message, ``fuel_used`` and final memory, and keeps handling
the session from there. The fast tier never reconstructs trap details; it only
detects that one is coming.

Process-wide, modules are compiled once: the compiled form (or the
reason there is none) is one more entry of the module's shared
:class:`~repro.sandbox.verifier.analysis.ModuleAnalysis`, keyed by
``Module.code_hash()`` like the proofs it is built from, and
:func:`get_compiled` reads it, so the marketplace's ``purchase_slot``,
``Executor.admit``, and every per-session VM share one translation.
Cache traffic is exported as ``vm_compile_cache_hits_total``
/ ``vm_compile_cache_misses_total`` counters, a ``vm_compile_instructions``
histogram of translated module sizes and — only in runs that degrade — a
``vm_compile_unsupported_total{reason}`` counter for modules forced onto
the reference tier. Every exported value is a function of the modules
seen and hit/miss is judged *per observability bundle*, so same-seed
exports are byte-identical across bundles and across processes. Nothing
here reads a clock; how long a translation takes is
``sandbox.compile.compile_module_ms`` in ``bench/``.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from collections.abc import Callable, Generator, Iterator
from inspect import isgeneratorfunction
from typing import Any

from repro.sandbox.hostops import HOST_OPS
from repro.sandbox.isa import Instruction, Op
from repro.sandbox.module import CACHE_CAPACITY, ENTRY_POINT, Function, Module
from repro.sandbox.verifier.analysis import ModuleAnalysis
from repro.sandbox.verifier.facts import (
    FactsUnavailable,
    FunctionFacts,
    StaticFacts,
    gather_facts,
)
from repro.sandbox.vm import VM, HostCall

_MASK = (1 << 64) - 1
_SIGN = 1 << 63
_TWO64 = 1 << 64

#: one little-endian u64: the compiled tier's 64-bit loads and stores
_U64 = struct.Struct("<Q")

_JUMPS = (Op.JMP, Op.JZ, Op.JNZ)
_LOADS = (Op.LOAD8, Op.LOAD64)
_MEMORY_OPS = (Op.LOAD8, Op.STORE8, Op.LOAD64, Op.STORE64)
_NAMED = (Op.GLOBAL_GET, Op.GLOBAL_SET, Op.HOST)

#: operands nest at most this deep before they are written to their slot.
_MAX_NESTING = 8

#: a generated function: ``f(vm, *params)``, a generator when it may yield
_Generated = Callable[..., Any]
#: what ``send`` drives: yields host calls, takes results, returns a value
_Run = Generator[HostCall, list[int] | None, int]
#: where a factory parameter is used: (function, instruction, kind)
_Where = tuple[int, int, str]


class _Bail(Exception):
    """The compiled tier hit (or is about to hit) a trap; replay on the
    reference interpreter for exact semantics."""


class CompileUnsupported(Exception):
    """The module cannot be proven safe for the compiled tier."""


#: what an access whose check was elided raises when its proof is wrong:
#: ``struct.error`` from a 64-bit access that does not fit, ``IndexError``
#: from an 8-bit one, ``OverflowError`` from an offset of 2^63 or more.
ACCESS_FAULTS = (struct.error, IndexError, OverflowError)

#: the factory's leading parameters: all that generated code may call.
_RUNTIME: dict[str, object] = {
    "_HostCall": HostCall, "_Bail": _Bail, "_int": int, "_abs": abs,
    "_up": _U64.unpack_from, "_pk": _U64.pack_into,
}


class CompiledModule:
    """A module's generated functions, shareable across VMs.

    The functions close over immutable per-module values only; all
    mutable machine state (memory, globals, fuel) is read off the VM
    passed to each call, so one ``CompiledModule`` safely backs any
    number of concurrently running VM instances.
    """

    __slots__ = ("code_hash", "functions", "entry", "value_stack_peak",
                 "call_depth", "elided_checks", "elided_const",
                 "elided_ranged", "_entry_suspends")

    def __init__(self, code_hash: bytes, functions: dict[str, _Generated],
                 facts: StaticFacts) -> None:
        self.code_hash = code_hash
        #: function name -> generated function (a generator function when
        #: it may suspend)
        self.functions = functions
        self.entry = functions[ENTRY_POINT]
        self._entry_suspends = isgeneratorfunction(self.entry)
        self.value_stack_peak = facts.value_stack_peak
        self.call_depth = facts.call_depth
        self.elided_const = sum(
            len(f.safe_accesses) for f in facts.functions.values()
        )
        self.elided_ranged = sum(
            len(f.inbounds_accesses) for f in facts.functions.values()
        )
        self.elided_checks = self.elided_const + self.elided_ranged

    def start(self, vm: VM, params: list[int]) -> _Run:
        """A generator running the entry point on ``vm``: it yields each
        :class:`~repro.sandbox.vm.HostCall`, takes the results by
        ``send`` and returns the (wrapped) result."""
        if self._entry_suspends:
            return self.entry(vm, *params)
        return _returning(self.entry, vm, params)


def _returning(function: _Generated, vm: VM, params: list[int]) -> _Run:
    """The generator protocol around an entry point that never suspends."""
    result: int = function(vm, *params)
    return result
    yield  # pragma: no cover - makes this function a generator


# ------------------------------------------------------------------ shape


def _bindings(
    module: Module, facts: StaticFacts
) -> Iterator[tuple[_Where, int | str | None]]:
    """``(function index, instruction index, kind), value`` for every
    value the generated source takes as a factory parameter, in one fixed
    order: push immediates (wrapped), global and host-op names, and each
    proven constant address."""
    for fi, (name, function) in enumerate(module.functions.items()):
        safe = facts.functions[name].safe_accesses
        for index, instruction in enumerate(function.code):
            op = instruction.op
            if op is Op.PUSH:
                yield (fi, index, "push"), int(instruction.arg) & _MASK
            elif op in _NAMED:
                yield (fi, index, "name"), instruction.arg
            elif index in safe:
                yield (fi, index, "addr"), safe[index]


def _shape_key(module: Module, facts: StaticFacts) -> tuple[object, ...]:
    """Everything the generated source is a function of, and nothing
    that :func:`_bindings` passes in as a value."""
    key: list[object] = [module.memory_size]
    for name, function in module.functions.items():
        ff = facts.functions[name]
        key.append((
            name, function.n_params, function.n_locals,
            tuple(
                "push" if i.op is Op.PUSH else (i.op.value, i.arg)
                for i in function.code
            ),
            ff.leaders,
            tuple(sorted(ff.block_fuel.items())),
            tuple(sorted(ff.depth_in.items())),
            tuple(sorted(ff.safe_accesses)),
            tuple(sorted(ff.inbounds_accesses)),
        ))
    return tuple(key)


# -------------------------------------------------------------- emission


class _Operand:
    """A symbolic operand: Python expression text over generated names.

    ``reads`` is the set of locals and slots the text reads (immediates
    are never assigned); ``cond`` is the same value as a truth test when
    that is cheaper than ``1 if ... else 0``.
    """

    __slots__ = ("text", "reads", "cond", "nesting")

    def __init__(self, text: str, reads: frozenset[str], cond: str | None = None,
                 nesting: int = 0) -> None:
        self.text = text
        self.reads = reads
        self.cond = cond
        self.nesting = nesting


def _name(text: str) -> _Operand:
    return _Operand(text, frozenset((text,)))


def _signed(text: str) -> str:
    return f"({text} - {_TWO64} if {text} >= {_SIGN} else {text})"


def _signed_once(operand: _Operand) -> str:
    """:func:`_signed` reading ``operand`` once: a name is repeated, an
    expression is bound to ``_t`` first."""
    if not operand.nesting:
        return _signed(operand.text)
    return f"(_t - {_TWO64} if (_t := {operand.text}) >= {_SIGN} else _t)"


def _truth(operand: _Operand) -> str:
    return operand.cond if operand.cond is not None else operand.text


#: pure, total binary ops: (value template, truth-test template or None).
#: Exact only because every operand is in [0, 2^64) (module docstring).
#: ``{sa}``/``{sb}`` are the operands read as signed. ``_t`` is bound and
#: read within one conditional expression, so nesting cannot clobber it.
_PURE: dict[Op, tuple[str | None, str | None]] = {
    Op.ADD: (f"(_t - {_TWO64} if (_t := {{a}} + {{b}}) > {_MASK} else _t)", None),
    Op.SUB: (f"(_t + {_TWO64} if (_t := {{a}} - {{b}}) < 0 else _t)", None),
    Op.MUL: (f"(_t & {_MASK} if (_t := {{a}} * {{b}}) > {_MASK} else _t)", None),
    Op.AND: ("({a} & {b})", None),
    Op.OR: ("({a} | {b})", None),
    Op.XOR: ("({a} ^ {b})", None),
    Op.SHL: (f"(({{a}} << ({{b}} & 63)) & {_MASK})", None),
    Op.SHRU: ("({a} >> ({b} & 63))", None),
    Op.EQ: (None, "{a} == {b}"),
    Op.NE: (None, "{a} != {b}"),
    Op.LTS: (None, "{sa} < {sb}"),
    Op.GTS: (None, "{sa} > {sb}"),
    Op.LES: (None, "{sa} <= {sb}"),
    Op.GES: (None, "{sa} >= {sb}"),
}


class _FunctionEmitter:
    """Source for one Debuglet function, as lines of the factory body."""

    def __init__(self, module: Module, fi: int, function: Function,
                 facts: FunctionFacts, params: dict[_Where, str],
                 index_of: dict[str, int],
                 suspends: dict[str, bool]) -> None:
        self.module = module
        self.fi = fi
        self.function = function
        self.facts = facts
        self.params = params
        self.index_of = index_of
        self.suspends = suspends
        self.lines: list[str] = []
        self.indent = 2
        self.stack: list[_Operand] = []
        #: "flat" (nothing jumps back), "single" (one region loops on
        #: itself) or "multi" (regions dispatched on ``b``)
        self.mode = "flat"
        #: the region being emitted: "prefix" (ahead of the loop) or "loop"
        self.where = "prefix"
        self.region_start = 0

    # ---------------------------------------------------------- output

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def param(self, index: int, kind: str) -> str:
        return self.params[(self.fi, index, kind)]

    # --------------------------------------------------- operand stack

    def _slot(self, position: int) -> str:
        return f"s{position}"

    def _settled(self, position: int) -> bool:
        return self.stack[position].text == self._slot(position)

    def _assign(self, pairs: list[tuple[str, str]]) -> None:
        if len(pairs) == 1:
            self.emit(f"{pairs[0][0]} = {pairs[0][1]}")
        elif pairs:
            targets = ", ".join(target for target, _ in pairs)
            values = ", ".join(value for _, value in pairs)
            self.emit(f"{targets} = {values}")

    def _spill(self, names: set[str]) -> list[tuple[str, str]]:
        """Settle every symbolic operand that reads one of ``names``, and
        every one that reads a slot so settled, as ``(slot, text)``."""
        names = set(names)
        chosen: dict[int, str] = {}
        grew = True
        while grew:
            grew = False
            for position, operand in enumerate(self.stack):
                if (position not in chosen and not self._settled(position)
                        and operand.reads & names):
                    chosen[position] = operand.text
                    names.add(self._slot(position))
                    grew = True
        pairs = []
        for position in sorted(chosen):
            pairs.append((self._slot(position), chosen[position]))
            self.stack[position] = _name(self._slot(position))
        return pairs

    def store(self, target: str, text: str) -> None:
        """``target = text``, first settling the operands that read
        ``target`` (one parallel assignment, so every right-hand side
        sees the old values)."""
        pairs = self._spill({target})
        pairs.append((target, text))
        self._assign(pairs)

    def push_value(self, text: str) -> None:
        """Write ``text`` to the next slot now and push that slot."""
        slot = self._slot(len(self.stack))
        self.store(slot, text)
        self.stack.append(_name(slot))

    def push(self, operand: _Operand) -> None:
        if operand.nesting > _MAX_NESTING:
            self.push_value(operand.text)
        else:
            self.stack.append(operand)

    def pop(self) -> _Operand:
        return self.stack.pop()

    def settle(self, position: int) -> None:
        operand = self.stack[position]
        slot = self._slot(position)
        self.stack[position] = _name(slot)
        self.store(slot, operand.text)

    def settle_all(self, below: int | None = None) -> None:
        """Write every symbolic operand (under ``below``) to its slot."""
        end = len(self.stack) if below is None else below
        pairs = []
        for position in range(end):
            if not self._settled(position):
                pairs.append((self._slot(position), self.stack[position].text))
                self.stack[position] = _name(self._slot(position))
        self._assign(pairs)

    def settle_under(self, base: int) -> None:
        """Settle the operands under a call's arguments (the block ends
        there), and the arguments too if they read a slot so settled."""
        below = {self._slot(p) for p in range(base) if not self._settled(p)}
        if any(operand.reads & below for operand in self.stack[base:]):
            self.settle_all()
        else:
            self.settle_all(below=base)

    # ------------------------------------------------------- structure

    def generate(self) -> list[str]:
        function, facts = self.function, self.facts
        code = function.code
        args = ", ".join(["V"] + [f"l{i}" for i in range(function.n_params)])
        self.lines.append(f"    def f{self.fi}({args}):")
        if not code:
            self.emit("return 0")  # falling off an empty body is free
            return self.lines
        ops = {instruction.op for instruction in code}
        if ops & set(_MEMORY_OPS):
            self.emit("M = V.memory")
        if ops & {Op.GLOBAL_GET, Op.GLOBAL_SET}:
            self.emit("G = V.globals")
        self.emit("L = V.fuel_limit")
        self.emit("fuel = V.fuel_used")
        n_total = function.n_params + function.n_locals
        if function.n_locals:
            zeroed = " = ".join(
                f"l{i}" for i in range(function.n_params, n_total)
            )
            self.emit(f"{zeroed} = 0")

        depth_in = facts.depth_in
        leaders = facts.leaders
        targets = {int(i.arg) for i in code if i.op in _JUMPS}
        starts = [
            leader for leader in leaders
            if leader == 0 or leader in targets
            or code[leader - 1].op in (Op.JMP, Op.RET)
        ]
        # regions nothing reaches have no entry depth and are not emitted
        live = [start for start in starts if start in depth_in]
        bounds = dict(zip(starts, starts[1:] + [len(code)]))

        # Region 0 runs ahead of the loop unless something jumps back to
        # it or a branch in it would have to skip the rest of it.
        prefix = 0 not in targets and not any(
            code[i].op in (Op.JZ, Op.JNZ) for i in range(bounds[0])
        )
        looped = live[1:] if prefix else live
        self.mode = "flat" if not looped else (
            "single" if len(looped) == 1 else "multi"
        )
        if prefix:
            self.region(0, bounds[0], "prefix")
        if self.mode != "flat":
            if self.mode == "multi" and not prefix:
                self.emit("b = 0")
            self.emit("while True:")
            self.indent += 1
            for start in looped:
                if self.mode == "multi":
                    self.emit(f"if b == {start}:")
                    self.indent += 1
                self.region(start, bounds[start], "loop")
                if self.mode == "multi":
                    self.indent -= 1
            self.indent -= 1
        return self.lines

    def region(self, start: int, end: int, where: str) -> None:
        """Emit the blocks of ``[start, end)``, one fuel charge each."""
        self.where, self.region_start = where, start
        facts, code = self.facts, self.function.code
        leaders = [i for i in facts.leaders if start <= i < end] + [end]
        for leader, stop in zip(leaders, leaders[1:]):
            self.stack = [_name(self._slot(p)) for p in range(facts.depth_in[leader])]
            self.emit(f"fuel += {facts.block_fuel[leader]}")
            self.emit("if fuel > L:")
            self.emit("    raise _Bail")
            for index in range(leader, stop):
                if facts.depth_in.get(index) != len(self.stack):
                    raise CompileUnsupported(
                        f"{self.function.name}@{index}: operand depth "
                        f"{len(self.stack)} disagrees with the verifier"
                    )
                self.instruction(index, code[index])
        last = code[end - 1].op
        if last in (Op.JMP, Op.RET):
            return
        self.settle_all()
        if end == len(code):
            self.leave(self.stack[-1].text if self.stack else "0")
        elif self.mode == "multi":
            self.emit(f"b = {end}")
        elif where == "loop":  # pragma: no cover - a second live region
            raise CompileUnsupported(f"{self.function.name}: region layout")

    def leave(self, value: str) -> None:
        self.emit("V.fuel_used = fuel")
        self.emit(f"return {value}")

    def jump(self, target: int, condition: str | None) -> None:
        """Transfer to the region at ``target`` (when ``condition``)."""
        if self.where == "prefix":
            # an unconditional jump ends the prefix; the loop dispatches
            if self.mode == "multi":
                self.emit(f"b = {target}")
            return
        if condition is not None:
            self.emit(f"if {condition}:")
            self.indent += 1
        if self.mode == "multi":
            self.emit(f"b = {target}")
            if condition is not None or target <= self.region_start:
                self.emit("continue")
        else:
            self.emit("continue")
        if condition is not None:
            self.indent -= 1

    # ---------------------------------------------------- instructions

    def instruction(self, index: int, instruction: Instruction) -> None:
        op, arg = instruction.op, instruction.arg
        pure = _PURE.get(op)
        if pure is not None:
            b, a = self.pop(), self.pop()
            template, test = pure
            nesting = max(a.nesting, b.nesting) + 1
            cond = None
            if test is not None:
                cond = test.format(a=a.text, b=b.text, sa=_signed_once(a),
                                   sb=_signed_once(b))
                value = f"(1 if {cond} else 0)"
            else:
                assert template is not None
                value = template.format(a=a.text, b=b.text)
            self.push(_Operand(value, a.reads | b.reads, cond, nesting))
        elif op is Op.PUSH:
            self.push(_Operand(self.param(index, "push"), frozenset()))
        elif op is Op.LOCAL_GET:
            self.push(_name(f"l{arg}"))
        elif op is Op.LOCAL_SET:
            self.store(f"l{arg}", self.pop().text)
        elif op is Op.LOCAL_TEE:
            self.store(f"l{arg}", self.pop().text)
            self.push(_name(f"l{arg}"))
        elif op is Op.EQZ:
            a = self.pop()
            truth = _truth(a)
            self.push(_Operand(f"(0 if {truth} else 1)", a.reads,
                               f"not ({truth})", a.nesting + 1))
        elif op is Op.DROP:
            self.pop()
        elif op is Op.DUP:
            if self.stack[-1].nesting:  # read twice: compute it once
                self.settle(len(self.stack) - 1)
            self.push(self.stack[-1])
        elif op is Op.SWAP:
            self.stack[-1], self.stack[-2] = self.stack[-2], self.stack[-1]
        elif op is Op.NOP:
            pass
        elif op in (Op.DIVS, Op.REMS):
            self.divide(op)
        elif op is Op.GLOBAL_GET:
            self.push_value(f"G[{self.param(index, 'name')}]")
        elif op is Op.GLOBAL_SET:
            self.emit(f"G[{self.param(index, 'name')}] = {self.pop().text}")
        elif op in _MEMORY_OPS:
            self.memory(index, op)
        elif op is Op.JMP:
            self.settle_all()
            self.jump(int(arg), None)
        elif op in (Op.JZ, Op.JNZ):
            condition = self.pop()
            targets = {self._slot(p) for p in range(len(self.stack))
                       if not self._settled(p)}
            if condition.reads & targets:
                self.emit(f"t0 = {condition.text}")
                condition = _name("t0")
            self.settle_all()
            truth = _truth(condition)
            self.jump(int(arg), truth if op is Op.JNZ else f"not ({truth})")
        elif op is Op.CALL:
            self.call(str(arg))
        elif op is Op.RET:
            self.leave(self.pop().text)
        elif op is Op.HOST:
            self.host(index, str(arg))
        else:  # pragma: no cover - exhaustive over the ISA
            raise CompileUnsupported(f"unhandled opcode {op}")

    def divide(self, op: Op) -> None:
        b, a = self.pop(), self.pop()
        self.emit(f"t0, t1 = {a.text}, {b.text}")
        self.emit("if not t1:")
        self.emit("    raise _Bail")
        for temp in ("t0", "t1"):
            self.emit(f"if {temp} >= {_SIGN}:")
            self.emit(f"    {temp} -= {_TWO64}")
        if op is Op.DIVS:
            self.emit("t2 = _abs(t0) // _abs(t1)")
            self.emit("if (t0 < 0) != (t1 < 0):")
        else:
            self.emit("t2 = _abs(t0) % _abs(t1)")
            self.emit("if t0 < 0:")
        self.emit("    t2 = -t2")
        self.push_value(f"t2 & {_MASK}")

    def memory(self, index: int, op: Op) -> None:
        size = self.module.memory_size
        wide = op in (Op.LOAD64, Op.STORE64)
        constant = (self.fi, index, "addr") in self.params
        checked = not constant and index not in self.facts.inbounds_accesses
        position = len(self.stack) - (1 if op in _LOADS else 2)
        if checked and self.stack[position].nesting:
            self.settle(position)  # the address is read twice
        value = "" if op in _LOADS else self.pop().text
        address = self.pop()
        if constant:
            start = self.param(index, "addr")
        else:
            start = address.text
            if checked:
                self.emit(f"if {start} > {size - 8 if wide else size - 1}:")
                self.emit("    raise _Bail")
        if op is Op.LOAD8:
            self.push_value(f"M[{start}]")
        elif op is Op.LOAD64:
            self.push_value(f"_up(M, {start})[0]")
        elif op is Op.STORE8:
            self.emit(f"M[{start}] = {value} & 255")
        else:
            self.emit(f"_pk(M, {start}, {value})")

    def call(self, name: str) -> None:
        callee = self.module.functions[name]
        n = callee.n_params
        base = len(self.stack) - n
        self.settle_under(base)
        args = ", ".join(["V"] + [operand.text for operand in self.stack[base:]])
        del self.stack[base:]
        how = "yield from " if self.suspends[name] else ""
        self.emit("V.fuel_used = fuel")
        self.emit(f"{self._slot(base)} = {how}f{self.index_of[name]}({args})")
        self.emit("fuel = V.fuel_used")
        self.stack.append(_name(self._slot(base)))

    def host(self, index: int, name: str) -> None:
        base = len(self.stack) - HOST_OPS[name].arity
        self.settle_under(base)
        for position in range(base, len(self.stack)):
            if self.stack[position].nesting:  # read twice: compute it once
                self.settle(position)
        signed = [_signed(operand.text) for operand in self.stack[base:]]
        args = "(" + "".join(f"{text}, " for text in signed) + ")"
        del self.stack[base:]
        self.emit("V.fuel_used = fuel")
        self.emit(f"r = yield _HostCall({self.param(index, 'name')}, {args})")
        self.emit("fuel = V.fuel_used")
        self.push_value(f"_int(r[0]) & {_MASK}")


def _suspending(module: Module) -> dict[str, bool]:
    """Which functions may yield: a ``HOST``, or a call to one that may.
    (Only runs on modules proven free of recursion.)"""
    memo: dict[str, bool] = {}

    def visit(name: str) -> bool:
        if name not in memo:
            memo[name] = False
            memo[name] = any(
                i.op is Op.HOST or (i.op is Op.CALL and visit(str(i.arg)))
                for i in module.functions[name].code
            )
        return memo[name]

    for name in module.functions:
        visit(name)
    return memo


def _source(module: Module, facts: StaticFacts) -> str:
    params = {
        where: f"k{n}" for n, (where, _) in enumerate(_bindings(module, facts))
    }
    names = list(module.functions)
    index_of = {name: fi for fi, name in enumerate(names)}
    suspends = _suspending(module)
    header = ", ".join(list(_RUNTIME) + list(params.values()))
    lines = [f"def factory({header}):"]
    for fi, name in enumerate(names):
        lines += _FunctionEmitter(
            module, fi, module.functions[name], facts.functions[name],
            params, index_of, suspends,
        ).generate()
    returned = "".join(f"f{fi}, " for fi in range(len(names)))
    lines.append(f"    return ({returned})")
    return "\n".join(lines) + "\n"


def _proven(module: Module) -> StaticFacts:
    try:
        return gather_facts(module)
    except FactsUnavailable as exc:
        raise CompileUnsupported(str(exc)) from exc


def generated_source(module: Module) -> str:
    """The Python source :func:`compile_module` compiles for ``module``'s
    shape (what the factory memo keys): for reading, and for tests."""
    return _source(module, _proven(module))


# ------------------------------------------------------------ shape memo


_FACTORIES: OrderedDict[tuple[object, ...], _Generated] = OrderedDict()
_FACTORIES_LOCK = threading.Lock()


def _factory(
    module: Module, facts: StaticFacts, key: tuple[object, ...]
) -> _Generated:
    """The compiled factory for ``key``, built on first sight."""
    with _FACTORIES_LOCK:
        factory = _FACTORIES.get(key)
        if factory is not None:
            _FACTORIES.move_to_end(key)
            return factory
    # Generate outside the lock, like the analysis stages: pure, and a
    # rare duplicate compile beats serialising every admission.
    namespace: dict[str, Any] = {"__builtins__": {}}
    exec(compile(_source(module, facts), "<debuglet>", "exec"), namespace)
    factory = namespace["factory"]
    with _FACTORIES_LOCK:
        factory = _FACTORIES.setdefault(key, factory)
        _FACTORIES.move_to_end(key)
        while len(_FACTORIES) > CACHE_CAPACITY:
            _FACTORIES.popitem(last=False)
    return factory


def compile_module(module: Module) -> CompiledModule:
    """Compile ``module`` to generated Python functions.

    Raises :class:`CompileUnsupported` when the static proofs the tier
    relies on are unavailable (the caller should use the reference tier).
    """
    facts = _proven(module)
    factory = _factory(module, facts, _shape_key(module, facts))
    values = [value for _, value in _bindings(module, facts)]
    generated = factory(*_RUNTIME.values(), *values)
    functions = dict(zip(module.functions, generated))
    return CompiledModule(module.code_hash(), functions, facts)


# ------------------------------------------------------------ the per-hash entry


def get_compiled(module: Module, obs=None) -> CompiledModule | None:
    """Compiled form of ``module``, from its shared analysis.

    Returns ``None`` when the module is not provable for the compiled
    tier; callers fall back to the reference interpreter, and
    ``ModuleAnalysis.of(module).compiled`` holds the reason.
    """
    entry = ModuleAnalysis.of(module).compiled
    if obs is not None:
        _record_obs(obs, module, entry)
    return None if isinstance(entry, str) else entry


def _record_obs(obs, module: Module, entry: CompiledModule | str) -> None:
    """Count hit/miss per observability bundle, not per process.

    The analysis cache outlives a scenario, so judging hit/miss against
    it would make the second same-seed run emit different counters than
    the first. Each bundle keeps its own seen-hash set, and what is
    observed on first sight — the module's instruction count, or the
    reason it cannot be compiled — depends on the module alone, never on
    the wall clock, which keeps same-seed exports byte-identical from one
    process to the next.
    """
    seen = getattr(obs, "_vm_compile_seen", None)
    if seen is None:
        seen = set()
        obs._vm_compile_seen = seen
    key = module.code_hash()
    if key in seen:
        obs.metrics.counter("vm_compile_cache_hits_total").inc()
        return
    seen.add(key)
    obs.metrics.counter("vm_compile_cache_misses_total").inc()
    if isinstance(entry, str):
        obs.metrics.counter("vm_compile_unsupported_total", reason=entry).inc()
    else:
        obs.metrics.histogram("vm_compile_instructions").observe(
            module.instruction_count()
        )
