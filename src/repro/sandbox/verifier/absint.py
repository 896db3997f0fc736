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

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import Any, NamedTuple, cast
from typing import Protocol as TypingProtocol

from repro.common.errors import SandboxError
from repro.sandbox.hostops import (
    HOST_OPS,
    RECV_HEADER_SIZE,
    net_ops,
    protocol_buffer,
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

#: joins into the same instruction before intervals are widened
_WIDEN_AFTER = 3

#: a branch predicate: ``(local, op, rhs, negated op)``
Pred = tuple[int, Op, Interval, Op]


class AbsVal(NamedTuple):
    """One abstract stack/local slot: interval x taint, plus optional
    markers — ``local`` when the value is a live copy of that local slot,
    ``pred`` when it is the boolean result of comparing local ``pred[0]``
    against the interval ``pred[2]`` with op ``pred[1]`` (``pred[3]`` is
    that op negated, carried so the false edge needs no lookup)."""

    interval: Interval
    taint: TaintSet = NO_TAINT
    local: int | None = None
    pred: Pred | None = None

    def untracked(self) -> AbsVal:
        if self.local is None and self.pred is None:
            return self
        return _absval((self.interval, self.taint, None, None))


#: ``_absval((interval, taint, local, pred))``: an :class:`AbsVal` built
#: straight from its four fields.
_absval = cast(
    Callable[[tuple[Any, ...]], AbsVal], partial(tuple.__new__, AbsVal)
)


def join_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    """The join; ``a`` itself when ``b`` adds nothing to it, so that
    "nothing moved" is an identity test."""
    if a is b:
        return a
    a_interval, a_taint, a_local, a_pred = a
    b_interval, b_taint, b_local, b_pred = b
    interval = a_interval if a_interval is b_interval \
        else a_interval.join(b_interval)
    taint = a_taint if a_taint is b_taint or b_taint <= a_taint \
        else a_taint | b_taint
    local = a_local if a_local == b_local else None
    pred = a_pred if a_pred == b_pred else None
    if (interval is a_interval and taint is a_taint and local is a_local
            and pred is a_pred):
        return a
    return _absval((interval, taint, local, pred))


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
    """Slot-wise join; ``a`` itself when no slot moved."""
    if a is b:
        return a
    joined = tuple(map(join_vals, a, b))
    # A slot that moved is unequal to its old value, so this C-level
    # comparison is an identity scan until the first moved slot.
    return a if joined == a else joined


def _widen_state(
    old: tuple[AbsVal, ...], new: tuple[AbsVal, ...]
) -> tuple[AbsVal, ...]:
    return tuple(
        _absval((o.interval.widen(n.interval), n.taint, n.local, n.pred))
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
        _absval((met, current.taint, current.local, current.pred)),
    ) + locals_[slot + 1:]
    refined_stack = tuple(
        _absval((value.interval.meet(constraint) or value.interval,
                 value.taint, value.local, value.pred))
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
        slot, op, rhs, negated = condition.pred
        constraint = iv.constrain(op if holds else negated, rhs)
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
            stack[position] = _absval((value.interval, value.taint, None, None))


# ------------------------------------------------------------ transfer table
#
# Each instruction is decoded once per module into a row ``(kind, ...)``
# whose trailing fields are the operands its transfer needs, resolved up
# front (access width, comparison handler and its mirrored/negated ops,
# the constant a push or an immutable global_get leaves, a callee's
# arity). The fixpoint dispatches on the small-integer ``kind`` and never
# looks an ``Op`` up in a table.

(
    _GET, _PUSH, _BINARY, _COMPARE, _SET, _TEE, _COND, _NOP, _LOAD, _STORE,
    _CALL, _HOST, _EQZ, _DROP, _DUP, _SWAP, _GLOBAL_GET, _GLOBAL_SET, _RET,
    _BAD_LOCAL,
) = range(20)

_SIMPLE_KINDS = {
    Op.DROP: _DROP, Op.DUP: _DUP, Op.SWAP: _SWAP, Op.EQZ: _EQZ, Op.RET: _RET,
    Op.JMP: _NOP, Op.NOP: _NOP,
}
_LOCAL_KINDS = {Op.LOCAL_GET: _GET, Op.LOCAL_SET: _SET, Op.LOCAL_TEE: _TEE}
#: memory op -> (kind, access width, interval a load leaves)
_ACCESSES = {
    Op.LOAD8: (_LOAD, 1, Interval(0, 255)),
    Op.LOAD64: (_LOAD, 8, iv.TOP),
    Op.STORE8: (_STORE, 1, None),
    Op.STORE64: (_STORE, 8, None),
}

_COMPARE_EQ = iv.COMPARES[Op.EQ]

Row = tuple[Any, ...]


def _rows(module: Module, function: Function, cfg: FunctionCFG) -> list[Row]:
    """``function``'s transfer rows, decoded once per module and memoised
    on it like the VM's decoded table (modules are immutable once built),
    so the fixpoint's repeated runs of a function decode nothing."""
    table = module.__dict__.setdefault("_absint_rows_cache", {})
    cached = table.get(function.name)
    if cached is not None and cached[0] is function:
        return cached[1]
    rows = _decode(module, function, cfg, mutable_global_names(module))
    table[function.name] = (function, rows)
    return rows


def _decode(
    module: Module,
    function: Function,
    cfg: FunctionCFG,
    mutable_globals: frozenset[str],
) -> list[Row]:
    """One transfer row per instruction of ``function``."""
    rows: list[Row] = []
    n_slots = function.n_params + function.n_locals
    name = function.name
    for index, instruction in enumerate(function.code):
        op, arg = instruction.op, instruction.arg
        kind = _SIMPLE_KINDS.get(op)
        row: Row
        if kind is not None:
            row = (kind,)
        elif op in _LOCAL_KINDS:
            slot = int(arg)
            if 0 <= slot < n_slots:
                row = (_LOCAL_KINDS[op], slot)
            else:
                row = (_BAD_LOCAL, d.error(
                    d.BAD_LOCAL_INDEX,
                    f"local index {slot} out of range "
                    f"(function has {n_slots})",
                    name, index,
                ))
        elif op is Op.PUSH:
            row = (_PUSH, AbsVal(iv.const(int(arg))))
        elif op in iv.BINARY:
            trap = None
            if op is Op.DIVS or op is Op.REMS:
                trap = d.warning(
                    d.DIVISION_BY_ZERO,
                    f"{op.value} with a constant zero divisor always traps",
                    name, index,
                )
            row = (_BINARY, iv.BINARY[op], trap)
        elif op in iv.COMPARES:
            mirrored = iv.MIRRORED[op]
            row = (_COMPARE, iv.COMPARES[op], (op, iv.NEGATED[op]),
                   (mirrored, iv.NEGATED[mirrored]))
        elif op is Op.JZ or op is Op.JNZ:
            # JZ jumps when the condition is zero; JNZ when nonzero.
            edges = (
                (int(arg), op is Op.JNZ),
                (index + 1, op is Op.JZ),
            )
            row = (_COND, tuple(
                edge for edge in edges if edge[0] in cfg.successors[index]
            ))
        elif op in _ACCESSES:
            row = _ACCESSES[op]
        elif op is Op.GLOBAL_GET:
            value = module.globals.get(arg)
            if arg in mutable_globals or value is None:
                row = (_GLOBAL_GET, str(arg))
            else:
                row = (_PUSH, AbsVal(iv.const(int(value))))
        elif op is Op.GLOBAL_SET:
            row = (_GLOBAL_SET, str(arg))
        elif op is Op.CALL:
            row = (_CALL, str(arg), module.functions[str(arg)].n_params)
        elif op is Op.HOST:
            row = (_HOST, str(arg))
        else:  # pragma: no cover - every Op is decoded above
            raise ValueError(f"no transfer for {op}")
        rows.append(row)
    return rows


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
    memory_limit = module.memory_size
    rows = _rows(module, function, cfg)
    successors = cfg.successors

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
    valve = 64 * (len(function.code) + 1)
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
        joined_stack = _join_state(known[0], state[0])
        joined_locals = _join_state(known[1], state[1])
        if joined_stack is known[0] and joined_locals is known[1]:
            return
        joined = (joined_stack, joined_locals)
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
        if sweeps > valve:  # safety valve
            result.converged = False
            break
        stack_in, locals_ = states[index]
        row = rows[index]
        kind = row[0]
        stack = list(stack_in)

        if kind == _GET:
            current = locals_[row[1]]
            stack.append(_absval((current[0], current[1], row[1], None)))
        elif kind == _PUSH:  # also an immutable global's constant
            stack.append(row[1])
        elif kind == _BINARY:
            rhs, lhs = stack.pop(), stack.pop()
            if row[2] is not None and rhs.interval.const == 0:
                flag(index, row[2])
            stack.append(_absval((
                row[1](lhs.interval, rhs.interval),
                lhs.taint | rhs.taint, None, None,
            )))
        elif kind == _COMPARE:
            rhs, lhs = stack.pop(), stack.pop()
            pred = None
            if lhs.local is not None:
                pred = (lhs.local, row[2][0], rhs.interval, row[2][1])
            elif rhs.local is not None:
                pred = (rhs.local, row[3][0], lhs.interval, row[3][1])
            stack.append(_absval((
                row[1](lhs.interval, rhs.interval),
                lhs.taint | rhs.taint, None, pred,
            )))
        elif kind == _SET or kind == _TEE:
            slot = row[1]
            value = stack[-1]
            _scrub_local(stack, slot, keep_top=kind == _TEE)
            stored = _absval((value.interval, value.taint, slot, None))
            if kind == _SET:
                stack.pop()
            else:
                stack[-1] = stored
            locals_ = locals_[:slot] + (stored,) + locals_[slot + 1:]
        elif kind == _COND:
            condition = stack.pop()
            out_stack = tuple(stack)
            merged: dict[int, tuple] = {}
            for successor, holds in row[1]:
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
        elif kind == _NOP:
            pass
        elif kind == _LOAD:
            width = row[1]
            address = stack.pop()
            stack.append(_absval((
                row[2],
                _read_taint(context, address.interval, width, memory_limit),
                None, None,
            )))
            _check_access(
                module, function, index, address.interval, width, flag
            )
        elif kind == _STORE:
            width = row[1]
            value = stack.pop()
            address = stack.pop()
            _record_write(result, address.interval, width, value.taint,
                          function.name, index, memory_limit)
            _check_access(
                module, function, index, address.interval, width, flag
            )
        elif kind == _CALL:
            callee, n_params = row[1], row[2]
            args = tuple(
                v.untracked() for v in stack[len(stack) - n_params:]
            ) if n_params else ()
            del stack[len(stack) - n_params:]
            known_args = result.call_args.get(callee)
            result.call_args[callee] = (
                args if known_args is None else _join_state(known_args, args)
            )
            summary = context.summaries.get(callee)
            if summary is not None and summary.returns is not None:
                stack.append(summary.returns.untracked())
            else:
                stack.append(AbsVal(iv.TOP))
        elif kind == _HOST:
            stack = _transfer_host(
                module, function, index, row[1], stack, host_facts, flag,
            )
        elif kind == _EQZ:
            value = stack.pop()
            eqz_pred: Pred | None = None
            if value.pred is not None:
                slot, cmp_op, rhs_interval, negated = value.pred
                eqz_pred = (slot, negated, rhs_interval, cmp_op)
            elif value.local is not None:
                eqz_pred = (value.local, Op.EQ, iv.FALSE, Op.NE)
            stack.append(_absval((
                _COMPARE_EQ(value.interval, iv.FALSE), value.taint, None,
                eqz_pred,
            )))
        elif kind == _DROP:
            stack.pop()
        elif kind == _DUP:
            stack.append(stack[-1])
        elif kind == _SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif kind == _GLOBAL_GET:
            stack.append(_absval((
                iv.TOP, context.global_taints.get(row[1], NO_TAINT),
                None, None,
            )))
        elif kind == _GLOBAL_SET:
            value = stack.pop()
            result.global_writes.append((row[1], value.taint))
        elif kind == _RET:
            if stack:
                returned = stack[-1].untracked()
                result.returns = (
                    returned if result.returns is None
                    else join_vals(result.returns, returned)
                )
        elif kind == _BAD_LOCAL:
            flag(index, row[1])
            continue

        out_state = (tuple(stack), locals_)
        for successor in successors[index]:
            propagate(successor, out_state)

    if result.converged:
        # Post-fixpoint pass over the final joined states: accesses whose
        # address interval provably fits memory never fault, so the
        # compiled tier may skip their runtime checks — constants via
        # safe_accesses (baked into the handler), dynamic-but-bounded
        # ones via inbounds_accesses.
        for index, (stack_in, _locals) in states.items():
            row = rows[index]
            kind = row[0]
            if kind != _LOAD and kind != _STORE:
                continue
            width = row[1]
            position = -2 if kind == _STORE else -1
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
    effect = HOST_OPS[name]
    n_args = effect.arity
    args = stack[len(stack) - n_args:] if n_args else []
    del stack[len(stack) - n_args:]

    protocol = None
    if name in _NET_OPS and args:
        protocol = args[0].interval.const

    lo, hi = effect.result_range
    if effect.writes_recv_buffer and protocol is not None:
        # A successful receive delivers at most the receive buffer's
        # capacity minus the header the executor prepends — anything
        # larger is a trap before the program resumes. This bounds
        # sizes derived from the result (an echo server's reply).
        try:
            buffer = protocol_buffer(module, protocol, "recv_buffer")
            hi = max(buffer.size - RECV_HEADER_SIZE, 0)
        except SandboxError:
            pass  # unknown protocol or missing buffer: keep the default
    taint: TaintSet = NO_TAINT
    if effect.result_taint != "const":
        taint = frozenset({(effect.result_taint, function.name, index)})
    stack.append(AbsVal(Interval(lo, hi), taint))
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

    if effect.payload_from == "memory" and len(args) == 2:
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
                f"{name} with offset {offset.render()} and length "
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
