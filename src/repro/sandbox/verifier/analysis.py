"""One static analysis per module, shared by every party that asks.

The contract at purchase, the executor at admission, the fleet manager,
the compiled tier and a third party re-checking a result all need facts
that depend on the bytecode alone. :class:`ModuleAnalysis` derives each
of them at most once per ``Module.code_hash()`` and the three readers —
:func:`~repro.sandbox.verifier.verifier.verify_module`,
:func:`~repro.sandbox.verifier.verifier.infer_capabilities` and
:func:`~repro.sandbox.verifier.facts.gather_facts` — add only what
depends on who is asking (manifest limits, executor policy).

Stages are lazy, and each assumes what the one before it established:

1. **validity / structure** — ``Module.validate`` and the V10x checks
   (entry point, well-formed instructions, jumps, names and indices that
   resolve). Everything below indexes by those names without looking.
2. **call graph and CFGs** — the callee map, its bottom-up order and
   cycles, what the entry point reaches and how deep; per-function CFGs
   with dead code (V102), recursion (V103), call depth (V104).
3. **stack** — operand-stack depth per instruction (V200–V202) and, from
   those depths and the acyclic call graph, the worst-case value-stack
   depth along call chains (V203). The abstract interpreter pops without
   checking, so it only ever runs behind this.
4. **context-free abstracts** — interval facts per function with unknown
   arguments and callees: what capability inference and check elision
   read. ``None`` unless stages 1 and 3 passed.
5. **interprocedural dataflow** — :func:`.taint.analyze_module`, plus the
   host-effect sequencing checks over it: what the report reads. ``None``
   unless every earlier stage is free of errors (which also makes the
   call graph acyclic, as the fixpoint requires).

On top of the stages, :meth:`ModuleAnalysis.fuel` keeps the worst-case
fuel estimate per ``(max_instructions, max_packets_received)`` pair a
manifest asked with: the limits select the diagnostics, the bytecode
decides the rest.

Results are immutable once computed and the cache is keyed by the hash of
the module's own canonical encoding, computed by whoever asks: a hit is
indistinguishable from a miss, and nobody's verdict is taken on trust.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import cached_property
from typing import ClassVar

from repro.common.errors import SandboxError
from repro.sandbox.hostops import HOST_OPS
from repro.sandbox.isa import Op, validate_instruction
from repro.sandbox.module import (
    CACHE_CAPACITY,
    ENTRY_POINT,
    MAX_MEMORY_BYTES,
    Module,
)
from repro.sandbox.verifier import diagnostics as d
from repro.sandbox.verifier import effects as fx
from repro.sandbox.verifier import taint as tt
from repro.sandbox.verifier.absint import FunctionAbstract, analyze_function
from repro.sandbox.verifier.cfg import FunctionCFG, build_cfg, tarjan_sccs
from repro.sandbox.verifier.fuel import FuelEstimate, estimate_module_fuel
from repro.sandbox.verifier.stackcheck import check_stack, stack_effect
from repro.sandbox.vm import VM

_LOCAL_OPS = (Op.LOCAL_GET, Op.LOCAL_SET, Op.LOCAL_TEE)


def _has_error(diagnostics: tuple[d.Diagnostic, ...]) -> bool:
    return any(diag.severity is d.Severity.ERROR for diag in diagnostics)


class ModuleAnalysis:
    """Everything the verifier knows about one module from its bytecode."""

    _CAPACITY: ClassVar[int] = CACHE_CAPACITY
    _shared: ClassVar[OrderedDict[bytes, ModuleAnalysis]] = OrderedDict()
    _lock: ClassVar[threading.Lock] = threading.Lock()

    def __init__(self, module: Module) -> None:
        self.module = module
        self._fuel: OrderedDict[tuple[int | None, int | None], FuelEstimate] = (
            OrderedDict()
        )

    @classmethod
    def of(cls, module: Module) -> ModuleAnalysis:
        """The shared analysis for ``module``'s bytecode (LRU by code hash).

        Stages run outside the lock: they are pure, and a rare duplicate
        derivation beats serialising every admission behind one module.
        """
        try:
            key = module.code_hash()
        except Exception:
            return cls(module)  # unencodable: analysed, never shared
        with cls._lock:
            analysis = cls._shared.get(key)
            if analysis is None:
                analysis = cls._shared[key] = cls(module)
                while len(cls._shared) > cls._CAPACITY:
                    cls._shared.popitem(last=False)
            else:
                cls._shared.move_to_end(key)
        return analysis

    # ------------------------------------------------ 1: validity, structure

    @cached_property
    def invalid(self) -> str | None:
        """Why ``Module.validate`` refuses the module; None when it passes."""
        try:
            self.module.validate()
        except SandboxError as exc:
            return str(exc)
        return None

    @cached_property
    def structure(self) -> tuple[d.Diagnostic, ...]:
        module = self.module
        diags: list[d.Diagnostic] = []
        if ENTRY_POINT not in module.functions:
            diags.append(d.error(
                d.MISSING_ENTRY_POINT,
                f"module lacks entry point {ENTRY_POINT!r}",
            ))
        if not 0 < module.memory_size <= MAX_MEMORY_BYTES:
            diags.append(d.error(
                d.MALFORMED_INSTRUCTION,
                f"memory size {module.memory_size} out of range "
                f"(1..{MAX_MEMORY_BYTES})",
            ))
        for name, function in sorted(module.functions.items()):
            if function.n_params < 0 or function.n_locals < 0:
                diags.append(d.error(
                    d.MALFORMED_INSTRUCTION,
                    "negative parameter or local count", name,
                ))
                continue
            n_slots = function.n_params + function.n_locals
            for index, instruction in enumerate(function.code):
                try:
                    validate_instruction(instruction)
                except ValueError as exc:
                    diags.append(d.error(
                        d.MALFORMED_INSTRUCTION, str(exc), name, index,
                    ))
                    continue
                op, arg = instruction.op, instruction.arg
                if op in (Op.JMP, Op.JZ, Op.JNZ):
                    if not 0 <= int(arg) < len(function.code):
                        diags.append(d.error(
                            d.JUMP_OUT_OF_RANGE,
                            f"jump target {arg} outside [0, {len(function.code)})",
                            name, index,
                        ))
                elif op is Op.CALL and arg not in module.functions:
                    diags.append(d.error(
                        d.UNKNOWN_CALL, f"call to unknown function {arg!r}",
                        name, index,
                    ))
                elif op is Op.HOST and arg not in HOST_OPS:
                    diags.append(d.error(
                        d.UNKNOWN_HOST_OP, f"unknown host operation {arg!r}",
                        name, index,
                    ))
                elif op in _LOCAL_OPS and not 0 <= int(arg) < n_slots:
                    diags.append(d.error(
                        d.BAD_LOCAL_INDEX,
                        f"local index {arg} out of range "
                        f"(function has {n_slots} slot(s))",
                        name, index,
                    ))
                elif op in (Op.GLOBAL_GET, Op.GLOBAL_SET) and arg not in module.globals:
                    diags.append(d.error(
                        d.UNKNOWN_GLOBAL, f"unknown global {arg!r}", name, index,
                    ))
        return tuple(diags)

    # -------------------------------------------------- 2: call graph, CFGs

    @cached_property
    def callees(self) -> dict[str, tuple[str, ...]]:
        """The call graph: each function's distinct callees, sorted."""
        return {
            name: tuple(sorted({
                str(instruction.arg)
                for instruction in function.code
                if instruction.op is Op.CALL
            }))
            for name, function in self.module.functions.items()
        }

    @cached_property
    def call_order(self) -> tuple[tuple[str, ...], frozenset[str]]:
        """``(acyclic functions, callees before callers; functions on a
        call cycle)`` over the whole module, reachable or not."""
        names = sorted(self.callees)
        index_of = {name: i for i, name in enumerate(names)}
        successors = [
            tuple(index_of[callee] for callee in self.callees[name])
            for name in names
        ]
        order: list[str] = []
        cyclic: set[str] = set()
        # Tarjan emits SCCs in reverse-topological order: callees first.
        for scc in tarjan_sccs(successors, set(range(len(names)))):
            first = next(iter(scc))
            if len(scc) > 1 or first in successors[first]:
                cyclic.update(names[i] for i in scc)
            else:
                order.append(names[first])
        return tuple(order), frozenset(cyclic)

    @cached_property
    def entry_walk(self) -> tuple[tuple[str, ...], int, str | None]:
        """From the entry point: the functions reachable (sorted), the
        deepest call chain in frames, and the first function re-entered on
        the way — None when that part of the graph is acyclic, which is
        when the depth means something."""
        depth: dict[str, int] = {}
        visiting: set[str] = set()
        reentered: list[str] = []

        def chain(name: str) -> int:
            known = depth.get(name)
            if known is not None:
                return known
            if name in visiting:
                reentered.append(name)
                return 0
            visiting.add(name)
            depth[name] = 1 + max(
                (chain(callee) for callee in self.callees[name]), default=0
            )
            visiting.discard(name)
            return depth[name]

        deepest = chain(ENTRY_POINT)
        return tuple(sorted(depth)), deepest, reentered[0] if reentered else None

    @cached_property
    def cfgs(self) -> dict[str, FunctionCFG]:
        return {
            name: build_cfg(function)
            for name, function in self.module.functions.items()
        }

    # -------------------------------------------------------------- 3: stack

    @cached_property
    def stack(self) -> tuple[tuple[d.Diagnostic, ...], dict[str, dict[int, int]]]:
        """V20x diagnostics and, per function, the operand-stack depth on
        entry to every instruction the check reached."""
        diags: list[d.Diagnostic] = []
        depth_in: dict[str, dict[int, int]] = {}
        for name in sorted(self.module.functions):
            found, depth_in[name] = check_stack(
                self.module, self.module.functions[name], self.cfgs[name]
            )
            diags.extend(found)
        return tuple(diags), depth_in

    @cached_property
    def value_stack_peak(self) -> int | None:
        """Worst-case value-stack depth from the entry point, summed along
        call chains; None unless the structure and stack stages found no
        error and the entry reaches no cycle.

        ``peak(f)`` is the largest depth reached relative to ``f``'s
        floor: an instruction's own exit depth or, at a call site, the
        depth left under the callee plus the callee's peak.
        """
        if (
            _has_error(self.structure)
            or self.stack[0]
            or self.entry_walk[2] is not None
        ):
            return None
        functions = self.module.functions
        depth_in = self.stack[1]
        peaks: dict[str, int] = {}

        def peak(name: str) -> int:
            known = peaks.get(name)
            if known is not None:
                return known
            code = functions[name].code
            highest = 0
            for index, entry_depth in depth_in[name].items():
                instruction = code[index]
                pops, pushes = stack_effect(instruction, self.module)
                highest = max(highest, entry_depth - pops + pushes)
                if instruction.op is Op.CALL:
                    callee = str(instruction.arg)
                    highest = max(
                        highest,
                        entry_depth - functions[callee].n_params + peak(callee),
                    )
            peaks[name] = highest
            return highest

        return peak(ENTRY_POINT)

    @cached_property
    def preflight(self) -> tuple[d.Diagnostic, ...]:
        """Stages 1-3 in report order; a failed structure stage suppresses
        the rest (they would index by names that do not resolve)."""
        if _has_error(self.structure):
            return self.structure
        diags = list(self.structure)
        for name, cfg in sorted(self.cfgs.items()):
            dead = set(range(len(cfg.function.code))) - cfg.reachable
            if dead:
                diags.append(d.warning(
                    d.UNREACHABLE_CODE,
                    f"{len(dead)} unreachable instruction(s) starting at "
                    f"index {min(dead)}",
                    name, min(dead),
                ))
        recursive = self.call_order[1]
        deepest = self.entry_walk[1]
        if recursive:
            diags.append(d.error(
                d.RECURSIVE_CALL,
                "recursive call cycle through "
                f"{', '.join(sorted(recursive))} — the VM cannot bound its "
                "frame depth statically",
            ))
        elif deepest > VM.MAX_STACK_DEPTH:
            diags.append(d.error(
                d.CALL_DEPTH_EXCEEDED,
                f"worst-case call depth {deepest} exceeds the VM frame "
                f"ceiling of {VM.MAX_STACK_DEPTH}",
                ENTRY_POINT,
            ))
        elif (self.value_stack_peak or 0) > VM.MAX_VALUE_STACK:
            diags.append(d.error(
                d.CALL_CHAIN_STACK_OVERFLOW,
                f"worst-case value-stack depth {self.value_stack_peak} along "
                f"call chains exceeds the VM ceiling of {VM.MAX_VALUE_STACK}",
                ENTRY_POINT,
            ))
        return tuple(diags) + self.stack[0]

    # ------------------------------------------- 4: context-free abstracts

    @cached_property
    def abstracts(self) -> dict[str, FunctionAbstract] | None:
        """Each function interpreted alone — arguments, globals written
        anywhere and call results unknown. None when the module is invalid
        or its stack discipline unproven: there is then nothing sound to
        interpret."""
        if (
            self.invalid is not None
            or _has_error(self.structure)
            or _has_error(self.stack[0])
        ):
            return None
        return {
            name: analyze_function(self.module, function, self.cfgs[name])
            for name, function in self.module.functions.items()
        }

    # ---------------------------------------- 5: interprocedural dataflow

    @cached_property
    def dataflow(self) -> tt.ModuleDataflow | None:
        if _has_error(self.preflight):
            return None
        return tt.analyze_module(
            self.module, self.cfgs, list(self.entry_walk[0]), self.callees
        )

    # ------------------------------------------------- fuel, per limit pair

    def fuel(
        self, max_instructions: int | None, max_packets_received: int | None
    ) -> FuelEstimate:
        """The fuel estimate under one pair of manifest limits, derived once
        per pair (LRU, like the analyses themselves). Shared: a reader
        copies what it keeps, as :func:`.verifier.verify_module` does."""
        key = (max_instructions, max_packets_received)
        with self._lock:
            estimate = self._fuel.get(key)
            if estimate is not None:
                self._fuel.move_to_end(key)
                return estimate
        estimate = estimate_module_fuel(
            self.module,
            self.cfgs,
            self.call_order,
            max_instructions=max_instructions,
            max_packets_received=max_packets_received,
        )
        with self._lock:
            self._fuel[key] = estimate
            while len(self._fuel) > self._CAPACITY:
                self._fuel.popitem(last=False)
        return estimate

    @cached_property
    def diagnostics(self) -> tuple[d.Diagnostic, ...]:
        """Every finding the bytecode alone decides, in report order."""
        dataflow = self.dataflow
        if dataflow is None:
            return self.preflight
        diags = list(self.preflight)
        for name in sorted(dataflow.outcomes):
            diags.extend(dataflow.outcomes[name].diagnostics)
        reachable = set(self.entry_walk[0])
        diags.extend(fx.check_effects(
            self.module, self.cfgs,
            [name for name in self.call_order[0] if name in reachable],
            dataflow.outcomes,
        ))
        return tuple(diags)
