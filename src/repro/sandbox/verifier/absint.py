"""Interval- and taint-propagating abstract interpretation of bytecode.

The per-value lattice combines two domains:

- an **interval** (:mod:`.intervals`) abstracting the signed-64 range a
  word can take, joined at control-flow merges and widened at loop heads
  so the fixpoint terminates. Singleton intervals subsume the old
  constants-only lattice; non-singleton ones additionally prove computed
  addresses (``(i & 511) * 8``) and loop induction variables in-bounds.
- a **taint set** of provenance :data:`Tag` s — which ``net_recv`` /
  ``now_us`` / ``rand_u32`` call sites a value (transitively) derives
  from. Constants carry the empty set.

Branch refinement makes the intervals path-sensitive where it matters:
comparison results remember which local they tested (a *predicate
token*), and a conditional jump meets the implied constraint into that
local on each outgoing edge; an empty meet marks the edge infeasible.

Per-function analysis is driven either standalone (the context-free stage
of :mod:`.analysis`, read by capability inference and :mod:`.facts`) or
by :mod:`.taint`'s module-level fixpoint, which
supplies an :class:`AnalysisContext` — memory/global taint maps and
interprocedural parameter/return summaries — and consumes the memory
writes, global writes, call arguments, and host-call argument facts
collected here.

Three consumers read the result:

- **memory**: ``LOAD*/STORE*`` (and ``HOST result_bytes``) accesses whose
  address interval provably fits the linear memory are safe — constant
  ones feed :attr:`FunctionAbstract.safe_accesses`, bounded dynamic ones
  :attr:`FunctionAbstract.inbounds_accesses`; the compiled tier elides
  the runtime bounds check at both. An interval provably *outside*
  memory is a certain :class:`~repro.common.errors.MemoryFault`,
  rejected ahead of time.
- **capabilities**: the protocol argument of every reachable network
  host call, where constant (V50x cross-checks).
- **policy**: per host site, the joined interval and taint of every
  argument (:class:`HostSite`), which :mod:`.taint` checks against the
  manifest's policy block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

from repro.common.errors import SandboxError
from repro.sandbox.hostops import (
    HOST_EFFECTS,
    HOST_OPS,
    RECV_HEADER_SIZE,
    net_ops,
    protocol_from_number,
)
from repro.sandbox.isa import Op
from repro.sandbox.module import Function, Module
from repro.sandbox.verifier import diagnostics as d
from repro.sandbox.verifier import intervals as iv
from repro.sandbox.verifier.cfg import FunctionCFG
from repro.sandbox.verifier.intervals import Interval

#: Provenance tag: ``(kind, function, instruction)`` of the originating
#: host call. Kinds are ``net``, ``time``, ``rand``; values derived only
#: from constants/immediates carry the empty tag set.
Tag = tuple[str, str, int]

TaintSet = frozenset  # of Tag

NO_TAINT: TaintSet = frozenset()

_NET_OPS = net_ops()

#: width of each memory access op
_ACCESS_WIDTH = {Op.LOAD8: 1, Op.STORE8: 1, Op.LOAD64: 8, Op.STORE64: 8}
_STORE_OPS = (Op.STORE8, Op.STORE64)

_BINARY_OPS = (
    Op.ADD, Op.SUB, Op.MUL, Op.DIVS, Op.REMS, Op.AND, Op.OR, Op.XOR,
    Op.SHL, Op.SHRU,
)
_COMPARE_OPS = (Op.EQ, Op.NE, Op.LTS, Op.GTS, Op.LES, Op.GES)

#: joins into the same instruction before intervals are widened
_WIDEN_AFTER = 3


@dataclass(frozen=True)
class AbsVal:
    """One abstract stack/local slot: interval x taint, plus optional
    markers — ``local`` when the value is a live copy of that local slot,
    ``pred`` when it is the boolean result of comparing local ``pred[0]``
    against the interval ``pred[2]`` with op ``pred[1]``."""

    interval: Interval
    taint: TaintSet = NO_TAINT
    local: int | None = None
    pred: tuple[int, Op, Interval] | None = None

    def untracked(self) -> "AbsVal":
        return AbsVal(self.interval, self.taint)


def join_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    return AbsVal(
        a.interval.join(b.interval),
        a.taint | b.taint,
        a.local if a.local == b.local else None,
        a.pred if a.pred == b.pred else None,
    )


class MemoryTaintMap(TypingProtocol):  # pragma: no cover - structural only
    """What the analysis needs from :class:`repro.sandbox.verifier.taint
    .MemoryTaint` (kept structural to avoid an import cycle)."""

    def read(self, lo: int, hi: int) -> TaintSet: ...


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural summary of one callee, from :mod:`.taint`."""

    #: joined abstract return value; None before the callee was analysed
    returns: AbsVal | None = None


@dataclass
class AnalysisContext:
    """Module-level facts the per-function analysis reads and feeds.

    The context-free stage (read by capability inference and facts
    gathering) passes no context: memory and global reads are then
    *untainted* — sound for those consumers, which ignore taint — and
    calls return TOP.
    """

    memory_taint: MemoryTaintMap | None = None
    global_taints: dict[str, TaintSet] = field(default_factory=dict)
    #: function name -> joined abstract argument values at its call sites
    param_values: dict[str, tuple[AbsVal, ...]] = field(default_factory=dict)
    summaries: dict[str, FunctionSummary] = field(default_factory=dict)


@dataclass(frozen=True)
class MemWrite:
    """One (possibly imprecise) tainted store: byte range ``[lo, hi)``."""

    lo: int
    hi: int
    taint: TaintSet
    function: str
    instruction: int


@dataclass(frozen=True)
class HostSite:
    """One reachable ``HOST`` instruction with its derived argument facts."""

    function: str
    instruction: int
    op: str
    #: wire protocol number when statically constant, else None
    protocol: int | None = None
    #: joined interval of each argument across all abstract visits
    arg_intervals: tuple[Interval, ...] = ()
    #: joined taint of each argument across all abstract visits
    arg_taints: tuple[TaintSet, ...] = ()


@dataclass
class FunctionAbstract:
    """Outcome of abstractly interpreting one function."""

    diagnostics: list[d.Diagnostic] = field(default_factory=list)
    host_sites: list[HostSite] = field(default_factory=list)
    #: instruction index -> constant address proven in-bounds for that
    #: access (loads/stores only). The compiled tier elides the runtime
    #: bounds check at exactly these sites.
    safe_accesses: dict[int, int] = field(default_factory=dict)
    #: instruction index -> (lo, hi) address interval proven in-bounds
    #: for a *dynamic* access; the compiled tier elides these checks too.
    inbounds_accesses: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: tainted stores performed (for the module-level memory fixpoint)
    mem_writes: list[MemWrite] = field(default_factory=list)
    #: (global name, taint) per GLOBAL_SET executed
    global_writes: list[tuple[str, TaintSet]] = field(default_factory=list)
    #: callee name -> joined abstract argument tuple at this caller's sites
    call_args: dict[str, tuple[AbsVal, ...]] = field(default_factory=dict)
    #: joined abstract value at RET sites; None if the function never returns
    returns: AbsVal | None = None
    #: False when the safety valve cut the fixpoint short; consumers must
    #: then treat proofs (safe/inbounds accesses, taint) as unavailable.
    converged: bool = True


def mutable_global_names(module: Module) -> frozenset[str]:
    """Globals written anywhere in the module (their reads are TOP)."""
    written = set()
    for function in module.functions.values():
        for instruction in function.code:
            if instruction.op is Op.GLOBAL_SET:
                written.add(instruction.arg)
    return frozenset(written)


def _join_state(
    a: tuple[AbsVal, ...], b: tuple[AbsVal, ...]
) -> tuple[AbsVal, ...]:
    return tuple(join_vals(x, y) for x, y in zip(a, b))


def _widen_state(
    old: tuple[AbsVal, ...], new: tuple[AbsVal, ...]
) -> tuple[AbsVal, ...]:
    return tuple(
        AbsVal(o.interval.widen(n.interval), n.taint, n.local, n.pred)
        for o, n in zip(old, new)
    )


def _refine_against_local(
    stack: tuple[AbsVal, ...],
    locals_: tuple[AbsVal, ...],
    slot: int,
    constraint: Interval,
) -> tuple[tuple[AbsVal, ...], tuple[AbsVal, ...]] | None:
    """Meet ``constraint`` into local ``slot`` and every live stack copy
    of it; None when the meet is empty (the edge is infeasible)."""
    met = locals_[slot].interval.meet(constraint)
    if met is None:
        return None
    current = locals_[slot]
    locals_ = locals_[:slot] + (
        AbsVal(met, current.taint, current.local, current.pred),
    ) + locals_[slot + 1:]
    refined_stack = tuple(
        AbsVal(value.interval.meet(constraint) or value.interval,
               value.taint, value.local, value.pred)
        if value.local == slot else value
        for value in stack
    )
    return refined_stack, locals_


def _refine_edge(
    stack: tuple[AbsVal, ...],
    locals_: tuple[AbsVal, ...],
    condition: AbsVal,
    holds: bool,
) -> tuple[tuple[AbsVal, ...], tuple[AbsVal, ...]] | None:
    """State after learning the branch condition is true (``holds``) or
    false on this edge; None when the edge is infeasible."""
    if condition.interval.is_const and (condition.interval.lo != 0) != holds:
        return None
    if not holds and not condition.interval.contains(0):
        return None  # condition is provably nonzero: false edge dead
    if condition.pred is not None:
        slot, op, rhs = condition.pred
        constraint = iv.constrain(op if holds else iv.NEGATED[op], rhs)
        return _refine_against_local(stack, locals_, slot, constraint)
    if condition.local is not None and not holds:
        # The condition IS a copy of the local; false means it is zero.
        return _refine_against_local(
            stack, locals_, condition.local, iv.FALSE
        )
    return stack, locals_


def _scrub_local(stack: list[AbsVal], slot: int, keep_top: bool) -> None:
    """Clear markers on stack values that referenced the *old* value of
    local ``slot`` (it was just overwritten)."""
    end = len(stack) - 1 if keep_top else len(stack)
    for position in range(end):
        value = stack[position]
        if value.local == slot or (value.pred and value.pred[0] == slot):
            stack[position] = AbsVal(value.interval, value.taint)


def analyze_function(
    module: Module,
    function: Function,
    cfg: FunctionCFG,
    context: AnalysisContext | None = None,
) -> FunctionAbstract:
    """Run the interval+taint analysis; requires a stack-valid function."""
    result = FunctionAbstract()
    if not function.code:
        return result
    if context is None:
        context = AnalysisContext()
    mutable_globals = mutable_global_names(module)
    n_slots = function.n_params + function.n_locals
    memory_limit = module.memory_size

    params = context.param_values.get(function.name)
    if params is None or len(params) != function.n_params:
        params = (AbsVal(iv.TOP),) * function.n_params
    initial_locals = tuple(p.untracked() for p in params) + (
        AbsVal(iv.const(0)),
    ) * function.n_locals

    states: dict[int, tuple[tuple[AbsVal, ...], tuple[AbsVal, ...]]] = {
        0: ((), initial_locals)
    }
    worklist = [0]
    # Widening is restricted to loop heads (targets of retreating edges);
    # widening straight-line nodes inside a loop body would destroy
    # bounds (like an AND-masked address) that stabilise on their own
    # once the head's induction variable is widened.
    widen_points = {
        index
        for index in range(len(function.code))
        if any(pred >= index for pred in cfg.predecessors[index])
    }
    join_counts: dict[int, int] = {}
    sweeps = 0
    flagged: set[tuple[int, str]] = set()

    def flag(index: int, diagnostic: d.Diagnostic) -> None:
        key = (index, diagnostic.code)
        if key not in flagged:
            flagged.add(key)
            result.diagnostics.append(diagnostic)

    host_facts: dict[int, tuple[str, int | None, tuple, tuple]] = {}

    def propagate(successor: int, state) -> None:
        known = states.get(successor)
        if known is None:
            states[successor] = state
            worklist.append(successor)
            return
        joined = (
            _join_state(known[0], state[0]),
            _join_state(known[1], state[1]),
        )
        if joined == known:
            return
        count = join_counts.get(successor, 0) + 1
        join_counts[successor] = count
        if successor in widen_points and count > _WIDEN_AFTER:
            joined = (
                _widen_state(known[0], joined[0]),
                _widen_state(known[1], joined[1]),
            )
        if joined != known:
            states[successor] = joined
            worklist.append(successor)

    while worklist:
        index = worklist.pop()
        sweeps += 1
        if sweeps > 64 * (len(function.code) + 1):  # safety valve
            result.converged = False
            break
        stack_in, locals_ = states[index]
        instruction = function.code[index]
        op, arg = instruction.op, instruction.arg
        stack = list(stack_in)

        if op in (Op.JZ, Op.JNZ):
            condition = stack.pop()
            out_stack = tuple(stack)
            target = int(arg)
            # JZ jumps when the condition is zero; JNZ when nonzero.
            edges = (
                (target, op is Op.JNZ),
                (index + 1, op is Op.JZ),
            )
            merged: dict[int, tuple] = {}
            for successor, holds in edges:
                if successor not in cfg.successors[index]:
                    continue
                refined = _refine_edge(out_stack, locals_, condition, holds)
                if refined is None:
                    continue
                state = refined
                if successor in merged:
                    known = merged[successor]
                    state = (
                        _join_state(known[0], state[0]),
                        _join_state(known[1], state[1]),
                    )
                merged[successor] = state
            for successor, state in merged.items():
                propagate(successor, state)
            continue

        if op is Op.PUSH:
            stack.append(AbsVal(iv.const(int(arg))))
        elif op is Op.DROP:
            stack.pop()
        elif op is Op.DUP:
            stack.append(stack[-1])
        elif op is Op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op is Op.EQZ:
            value = stack.pop()
            interval = iv.compare(Op.EQ, value.interval, iv.FALSE)
            pred = None
            if value.pred is not None:
                slot, cmp_op, rhs = value.pred
                pred = (slot, iv.NEGATED[cmp_op], rhs)
            elif value.local is not None:
                pred = (value.local, Op.EQ, iv.FALSE)
            stack.append(AbsVal(interval, value.taint, pred=pred))
        elif op in (Op.LOCAL_GET, Op.LOCAL_SET, Op.LOCAL_TEE):
            slot = int(arg)
            if not 0 <= slot < n_slots:
                flag(index, d.error(
                    d.BAD_LOCAL_INDEX,
                    f"local index {slot} out of range "
                    f"(function has {n_slots})",
                    function.name, index,
                ))
                continue
            if op is Op.LOCAL_GET:
                current = locals_[slot]
                stack.append(AbsVal(current.interval, current.taint, slot))
            else:
                value = stack[-1]
                _scrub_local(stack, slot, keep_top=op is Op.LOCAL_TEE)
                stored = AbsVal(value.interval, value.taint, slot)
                if op is Op.LOCAL_SET:
                    stack.pop()
                else:
                    stack[-1] = stored
                locals_ = locals_[:slot] + (stored,) + locals_[slot + 1:]
        elif op is Op.GLOBAL_GET:
            value = module.globals.get(arg)
            if arg in mutable_globals or value is None:
                stack.append(AbsVal(
                    iv.TOP, context.global_taints.get(str(arg), NO_TAINT)
                ))
            else:
                stack.append(AbsVal(iv.const(int(value))))
        elif op is Op.GLOBAL_SET:
            value = stack.pop()
            result.global_writes.append((str(arg), value.taint))
        elif op in _ACCESS_WIDTH:
            width = _ACCESS_WIDTH[op]
            if op in _STORE_OPS:
                value = stack.pop()
                address = stack.pop()
                _record_write(result, address.interval, width, value.taint,
                              function.name, index, memory_limit)
            else:
                address = stack.pop()
                loaded = Interval(0, 255) if op is Op.LOAD8 else iv.TOP
                stack.append(AbsVal(
                    loaded,
                    _read_taint(context, address.interval, width,
                                memory_limit),
                ))
            _check_access(
                module, function, index, address.interval, width, flag
            )
        elif op is Op.CALL:
            callee = module.functions[str(arg)]
            n_params = callee.n_params
            args = tuple(
                v.untracked() for v in stack[len(stack) - n_params:]
            ) if n_params else ()
            del stack[len(stack) - n_params:]
            known_args = result.call_args.get(str(arg))
            result.call_args[str(arg)] = (
                args if known_args is None else _join_state(known_args, args)
            )
            summary = context.summaries.get(str(arg))
            if summary is not None and summary.returns is not None:
                stack.append(summary.returns.untracked())
            else:
                stack.append(AbsVal(iv.TOP))
        elif op is Op.HOST:
            stack = _transfer_host(
                module, function, index, str(arg), stack, host_facts, flag,
            )
        elif op in _COMPARE_OPS:
            rhs, lhs = stack.pop(), stack.pop()
            interval = iv.compare(op, lhs.interval, rhs.interval)
            pred = None
            if lhs.local is not None:
                pred = (lhs.local, op, rhs.interval)
            elif rhs.local is not None:
                pred = (rhs.local, iv.MIRRORED[op], lhs.interval)
            stack.append(AbsVal(interval, lhs.taint | rhs.taint, pred=pred))
        elif op in _BINARY_OPS:
            rhs, lhs = stack.pop(), stack.pop()
            if op in (Op.DIVS, Op.REMS) and rhs.interval.const == 0:
                flag(index, d.warning(
                    d.DIVISION_BY_ZERO,
                    f"{op.value} with a constant zero divisor always traps",
                    function.name, index,
                ))
            stack.append(AbsVal(
                iv.binary(op, lhs.interval, rhs.interval),
                lhs.taint | rhs.taint,
            ))
        elif op is Op.RET:
            if stack:
                returned = stack[-1].untracked()
                result.returns = (
                    returned if result.returns is None
                    else join_vals(result.returns, returned)
                )
        # JMP, NOP: no stack change.

        out_state = (tuple(stack), locals_)
        for successor in cfg.successors[index]:
            propagate(successor, out_state)

    if result.converged:
        # Post-fixpoint pass over the final joined states: accesses whose
        # address interval provably fits memory never fault, so the
        # compiled tier may skip their runtime checks — constants via
        # safe_accesses (baked into the handler), dynamic-but-bounded
        # ones via inbounds_accesses.
        for index, (stack_in, _locals) in states.items():
            op = function.code[index].op
            width = _ACCESS_WIDTH.get(op)
            if width is None:
                continue
            position = -2 if op in _STORE_OPS else -1
            if len(stack_in) < -position:
                continue
            address = stack_in[position].interval
            if address.is_const:
                if 0 <= address.lo and address.lo + width <= memory_limit:
                    result.safe_accesses[index] = address.lo
            elif address.within(0, memory_limit - width):
                result.inbounds_accesses[index] = (address.lo, address.hi)

    result.host_sites = [
        HostSite(function.name, index, op_name, protocol, intervals, taints)
        for index, (op_name, protocol, intervals, taints)
        in sorted(host_facts.items())
    ]
    return result


def _transfer_host(
    module: Module,
    function: Function,
    index: int,
    name: str,
    stack: list[AbsVal],
    host_facts: dict[int, tuple[str, int | None, tuple, tuple]],
    flag,
) -> list[AbsVal]:
    n_args, n_results = HOST_OPS[name]
    args = stack[len(stack) - n_args:] if n_args else []
    del stack[len(stack) - n_args:]

    protocol = None
    if name in _NET_OPS and args:
        protocol = args[0].interval.const

    effect = HOST_EFFECTS[name]
    lo, hi = effect.result_range
    if name == "net_recv" and protocol is not None:
        # A successful receive delivers at most the receive buffer's
        # capacity minus the header the executor prepends — anything
        # larger is a trap before the program resumes. This bounds
        # sizes derived from the result (an echo server's reply).
        try:
            proto_name = protocol_from_number(protocol).name.lower()
            buffer = module.buffer(f"{proto_name}_recv_buffer", "recv_buffer")
            hi = max(buffer.size - RECV_HEADER_SIZE, 0)
        except SandboxError:
            pass  # unknown protocol or missing buffer: keep the default
    taint: TaintSet = NO_TAINT
    if effect.result_taint != "const":
        taint = frozenset({(effect.result_taint, function.name, index)})
    stack.extend([AbsVal(Interval(lo, hi), taint)] * n_results)
    arg_intervals = tuple(a.interval for a in args)
    arg_taints = tuple(a.taint for a in args)
    known = host_facts.get(index)
    if known is None:
        host_facts[index] = (name, protocol, arg_intervals, arg_taints)
    else:
        _, known_protocol, known_intervals, known_taints = known
        host_facts[index] = (
            name,
            protocol if known_protocol == protocol else None,
            tuple(a.join(b) for a, b in zip(known_intervals, arg_intervals)),
            tuple(a | b for a, b in zip(known_taints, arg_taints)),
        )

    if name == "result_bytes" and len(args) == 2:
        offset, length = args[0].interval, args[1].interval
        always_faults = (
            offset.hi < 0
            or length.hi < 0
            or (offset.lo >= 0 and length.lo >= 0
                and offset.lo + length.lo > module.memory_size)
        )
        if always_faults:
            flag(index, d.error(
                d.MEMORY_OUT_OF_BOUNDS,
                f"result_bytes with offset {offset.render()} and length "
                f"{length.render()} always reads outside memory of "
                f"{module.memory_size} bytes",
                function.name, index,
            ))
    return stack


def _read_taint(
    context: AnalysisContext, address: Interval, width: int, limit: int
) -> TaintSet:
    if context.memory_taint is None:
        return NO_TAINT
    lo = max(address.lo, 0)
    hi = min(address.hi, limit - width) + width
    if hi <= lo:
        return NO_TAINT
    return context.memory_taint.read(lo, hi)


def _record_write(
    result: FunctionAbstract,
    address: Interval,
    width: int,
    taint: TaintSet,
    function: str,
    index: int,
    limit: int,
) -> None:
    if not taint:
        return  # untainted stores never add provenance
    if address.disjoint(0, limit - width):
        return  # certain trap; the store never lands
    lo = max(address.lo, 0)
    hi = min(address.hi, limit - width) + width
    result.mem_writes.append(MemWrite(lo, hi, taint, function, index))


def _check_access(
    module: Module,
    function: Function,
    index: int,
    address: Interval,
    width: int,
    flag,
) -> None:
    limit = module.memory_size - width
    if address.within(0, limit):
        return  # provably safe: no diagnostic, check elidable
    if address.disjoint(0, limit):
        flag(index, d.error(
            d.MEMORY_OUT_OF_BOUNDS,
            f"{width}-byte access at {address.render()} outside memory of "
            f"{module.memory_size} bytes",
            function.name, index,
        ))
        return
    flag(index, d.info(
        d.MEMORY_NOT_DERIVABLE,
        f"{width}-byte access address {address.render()} not statically "
        "bounded (bounds-checked at run time)",
        function.name, index,
    ))
