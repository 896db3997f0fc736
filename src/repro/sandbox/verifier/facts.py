"""Static facts the compiled execution tier needs, per module.

The compiled tier (:mod:`repro.sandbox.compile`) only runs modules
for which the verifier's analyses can *prove* the dynamic checks the
reference interpreter performs per instruction. :func:`gather_facts` is a
reader of the module's shared :class:`~.analysis.ModuleAnalysis` — it
runs no analysis of its own — and takes from it:

- well-formed structure (the module validates; local indices in range,
  known host ops) — stage 1;
- bounded call depth and no recursion reachable from the entry — the
  frame-stack analogue, stage 2;
- operand-stack discipline (no underflow, depth below the VM ceiling,
  consistent depths at joins), the per-instruction entry depths and the
  worst-case value-stack depth summed along call chains — stage 3;
- the interval facts that let individual bounds checks be elided
  (:attr:`FunctionFacts.safe_accesses`,
  :attr:`FunctionFacts.inbounds_accesses`) — the interprocedural
  dataflow of stage 5, the same one the verifier's report reads, so an
  address passed as an argument is proven from its call sites. Only
  functions the entry reaches are interpreted there, and only a
  converged fixpoint proves anything: the other functions, and every
  function of a module whose fixpoint did not converge, keep all their
  checks.

What it adds is what only the translator needs: globals representable as
unsigned 64-bit values, and the *block layout* used for fuel
pre-aggregation — basic-block leaders and the exact fuel cost of each
block (the sum of its instructions' :data:`~repro.sandbox.isa.FUEL_COST`).

A module for which any proof fails raises :class:`FactsUnavailable`
naming the first one that did; the VM then stays on the reference tier,
and says so — the compiled tier is an optimisation, never a requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sandbox.isa import FUEL_COST, Op
from repro.sandbox.module import Function, Module
from repro.sandbox.verifier.analysis import ModuleAnalysis
from repro.sandbox.verifier.diagnostics import Severity

#: ops that terminate a basic block (control may leave the straight line).
_BLOCK_ENDERS = (Op.JMP, Op.JZ, Op.JNZ, Op.CALL, Op.HOST, Op.RET)
_JUMP_OPS = (Op.JMP, Op.JZ, Op.JNZ)


class FactsUnavailable(Exception):
    """The module cannot be proven safe for the compiled tier."""


@dataclass(frozen=True)
class FunctionFacts:
    """Per-function layout and safety facts."""

    name: str
    #: basic-block leader indices, ascending. Every jump target is a
    #: leader, as is the instruction after any block-ending instruction.
    leaders: tuple[int, ...]
    #: leader index -> total fuel of the block starting there.
    block_fuel: dict[int, int]
    #: instruction index -> proven-in-range constant address (loads/stores).
    safe_accesses: dict[int, int]
    #: instruction index -> operand-stack depth on entry (stackcheck).
    depth_in: dict[int, int] = field(default_factory=dict)
    #: instruction index -> proven address interval (lo, hi) for dynamic
    #: loads/stores whose whole range fits in memory; the access keeps its
    #: computed address but skips the bounds check.
    inbounds_accesses: dict[int, tuple[int, int]] = field(default_factory=dict)


@dataclass
class StaticFacts:
    """Everything the translator needs, for every function in the module."""

    functions: dict[str, FunctionFacts]
    #: worst-case absolute value-stack depth across the whole call tree.
    value_stack_peak: int
    #: deepest call chain from the entry point, in frames.
    call_depth: int


def block_leaders(function: Function) -> tuple[int, ...]:
    """Basic-block leaders of ``function`` (index 0, jump targets, and
    successors of block-ending instructions)."""
    code = function.code
    if not code:
        return ()
    leaders = {0}
    for index, instruction in enumerate(code):
        if instruction.op in _JUMP_OPS:
            leaders.add(int(instruction.arg))
        if instruction.op in _BLOCK_ENDERS and index + 1 < len(code):
            leaders.add(index + 1)
    return tuple(sorted(leaders))


def block_fuel(function: Function, leaders: tuple[int, ...]) -> dict[int, int]:
    """Leader -> summed fuel of the block ``[leader, next_leader)``."""
    costs: dict[int, int] = {}
    code = function.code
    for position, leader in enumerate(leaders):
        end = leaders[position + 1] if position + 1 < len(leaders) else len(code)
        costs[leader] = sum(FUEL_COST[code[i].op] for i in range(leader, end))
    return costs


def gather_facts(module: Module) -> StaticFacts:
    """Prove the module safe for the compiled tier and lay out its blocks.

    Raises :class:`FactsUnavailable` when any required proof fails; the
    caller falls back to the reference interpreter in that case.
    """
    analysis = ModuleAnalysis.of(module)
    if analysis.invalid is not None:
        raise FactsUnavailable(f"module fails validation: {analysis.invalid}")
    for name, value in module.globals.items():
        if not 0 <= int(value) < (1 << 64):
            raise FactsUnavailable(
                f"global {name!r} = {value} is not an unsigned 64-bit value"
            )
    for diag in analysis.structure:
        if diag.severity is Severity.ERROR:
            raise FactsUnavailable(f"{diag.location}: {diag.message}")
    stack_diags, depth_in = analysis.stack
    if stack_diags:  # every stack diagnostic is an error
        raise FactsUnavailable(
            f"{stack_diags[0].function}: operand-stack discipline not "
            f"provable ({stack_diags[0].message})"
        )
    _, call_depth, reentered = analysis.entry_walk
    if reentered is not None:
        raise FactsUnavailable(f"recursive call through {reentered!r}")
    from repro.sandbox.vm import VM  # late: vm imports this package lazily

    if call_depth > VM.MAX_STACK_DEPTH:
        raise FactsUnavailable(
            f"worst-case call depth {call_depth} exceeds the frame ceiling "
            f"of {VM.MAX_STACK_DEPTH}"
        )
    value_stack_peak = analysis.value_stack_peak
    assert value_stack_peak is not None  # stack-checked, acyclic from the entry
    if value_stack_peak > VM.MAX_VALUE_STACK:
        raise FactsUnavailable(
            f"worst-case value-stack depth {value_stack_peak} exceeds the "
            f"ceiling of {VM.MAX_VALUE_STACK}"
        )

    dataflow = analysis.dataflow
    outcomes = (
        dataflow.outcomes if dataflow is not None and dataflow.converged
        else {}
    )
    per_function: dict[str, FunctionFacts] = {}
    for name, function in module.functions.items():
        outcome = outcomes.get(name)
        safe = {} if outcome is None else dict(outcome.safe_accesses)
        inbounds = {} if outcome is None else dict(outcome.inbounds_accesses)
        leaders = block_leaders(function)
        per_function[name] = FunctionFacts(
            name=name,
            leaders=leaders,
            block_fuel=block_fuel(function, leaders),
            safe_accesses=safe,
            depth_in=dict(depth_in[name]),
            inbounds_accesses=inbounds,
        )
    return StaticFacts(
        functions=per_function,
        value_stack_peak=value_stack_peak,
        call_depth=call_depth,
    )
