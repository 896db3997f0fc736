"""Abstract interpretation of operand-stack depth, per function.

Mirrors WebAssembly validation: every instruction has a static stack
effect, so the depth at each program point is computable by forward
dataflow. The checker rejects

- pops from an empty (per-frame) stack — the VM's runtime "value stack
  underflow" trap, proven impossible ahead of time;
- depths that could exceed the VM's value-stack ceiling;
- join points reached with different depths (the bytecode analogue of
  Wasm's unbalanced-branch rule). The VM itself tolerates these, but a
  depth-mismatched program has no well-defined fuel/memory abstraction,
  so the verifier refuses to certify it.

A function is analysed in isolation: calls pop the callee's parameter
count and push one result, exactly as the VM's frame discipline
(``stack_floor``) guarantees.
"""

from __future__ import annotations

from repro.sandbox.hostops import HOST_OPS
from repro.sandbox.isa import Instruction, Op
from repro.sandbox.module import Function, Module
from repro.sandbox.verifier import diagnostics as d
from repro.sandbox.verifier.cfg import FunctionCFG
from repro.sandbox.vm import VM

#: op -> (pops, pushes) for ops with a fixed effect.
_FIXED_EFFECTS: dict[Op, tuple[int, int]] = {
    Op.PUSH: (0, 1),
    Op.DROP: (1, 0),
    Op.DUP: (1, 2),
    Op.SWAP: (2, 2),
    Op.ADD: (2, 1),
    Op.SUB: (2, 1),
    Op.MUL: (2, 1),
    Op.DIVS: (2, 1),
    Op.REMS: (2, 1),
    Op.AND: (2, 1),
    Op.OR: (2, 1),
    Op.XOR: (2, 1),
    Op.SHL: (2, 1),
    Op.SHRU: (2, 1),
    Op.EQ: (2, 1),
    Op.NE: (2, 1),
    Op.LTS: (2, 1),
    Op.GTS: (2, 1),
    Op.LES: (2, 1),
    Op.GES: (2, 1),
    Op.EQZ: (1, 1),
    Op.LOCAL_GET: (0, 1),
    Op.LOCAL_SET: (1, 0),
    Op.LOCAL_TEE: (1, 1),
    Op.GLOBAL_GET: (0, 1),
    Op.GLOBAL_SET: (1, 0),
    Op.LOAD8: (1, 1),
    Op.STORE8: (2, 0),
    Op.LOAD64: (1, 1),
    Op.STORE64: (2, 0),
    Op.JMP: (0, 0),
    Op.JZ: (1, 0),
    Op.JNZ: (1, 0),
    Op.RET: (1, 0),
    Op.NOP: (0, 0),
}


def stack_effect(instruction: Instruction, module: Module) -> tuple[int, int]:
    """``(pops, pushes)`` of one instruction within ``module``."""
    op = instruction.op
    if op is Op.CALL:
        callee = module.functions[instruction.arg]
        return callee.n_params, 1
    if op is Op.HOST:
        return HOST_OPS[instruction.arg].arity, 1
    return _FIXED_EFFECTS[op]


def check_stack(
    module: Module, function: Function, cfg: FunctionCFG
) -> tuple[list[d.Diagnostic], dict[int, int]]:
    """Validate stack depths; returns diagnostics and the per-instruction
    entry depth for every instruction the analysis reached."""
    diags: list[d.Diagnostic] = []
    depth_in: dict[int, int] = {}
    if not function.code:
        return diags, depth_in

    depth_in[0] = 0
    worklist = [0]
    flagged: set[int] = set()
    while worklist:
        index = worklist.pop()
        depth = depth_in[index]
        instruction = function.code[index]
        pops, pushes = stack_effect(instruction, module)
        if depth < pops:
            if index not in flagged:
                flagged.add(index)
                diags.append(d.error(
                    d.STACK_UNDERFLOW,
                    f"{instruction} needs {pops} operand(s), stack depth is {depth}",
                    function.name, index,
                ))
            continue  # do not propagate past a proven underflow
        depth_out = depth - pops + pushes
        if depth_out > VM.MAX_VALUE_STACK:
            if index not in flagged:
                flagged.add(index)
                diags.append(d.error(
                    d.STACK_OVERFLOW,
                    f"stack depth {depth_out} exceeds the VM ceiling of "
                    f"{VM.MAX_VALUE_STACK}",
                    function.name, index,
                ))
            continue
        for successor in cfg.successors[index]:
            known = depth_in.get(successor)
            if known is None:
                depth_in[successor] = depth_out
                worklist.append(successor)
            elif known != depth_out:
                key = -successor - 1  # flag joins separately from underflows
                if key not in flagged:
                    flagged.add(key)
                    diags.append(d.error(
                        d.STACK_DEPTH_MISMATCH,
                        f"join point reached with stack depths {known} and "
                        f"{depth_out}",
                        function.name, successor,
                    ))
    return diags, depth_in
