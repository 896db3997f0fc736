"""Worst-case fuel estimation over the control-flow graph.

Fuel is the VM's deterministic instruction metering (``FUEL_COST``), so a
static bound on instructions executed is a static bound on fuel. The
estimator classifies every function:

- **exact** — the body is loop-free; the worst case is the longest path
  through the DAG, weighted by per-instruction fuel cost (calls fold in
  the callee's own bound).
- **bounded** — the body has cycles, but every cyclic strongly connected
  component matches a recognised terminating-loop shape, yielding a trip
  bound per SCC. The total is then ``Σ cost(i) × trips(scc(i))`` over
  reachable instructions — sound because an SCC cannot be re-entered
  (any cycle re-entering it would, by definition, be part of it), and
  within one entry each member instruction executes at most once per
  trip.
- **unbounded** — some cycle escapes both patterns. With a manifest in
  hand this is a hard rejection (the bound cannot be proven under the
  fuel limit); standalone it is only a warning.

Recognised loop shapes (all matched on *linear runs* — straight-line
sequences no jump can land inside — so a cycle cannot skip the
bookkeeping):

1. **Counted loop**: an induction local written only by
   ``local_get L / push c / add / local_set L`` increments (c ≥ 1)
   inside the loop — plus, optionally, constant non-negative resets
   *outside* it — guarded by ``local_get L / push K / ges / jnz exit``
   (or ``lts / jz exit``) with the exit outside the SCC. Locals start
   at 0 and every write keeps the counter ≥ 0, so no matter what value
   the counter enters the loop with, trips ≤ ceil(K/c) + 2 (slack for
   the exiting iteration and off-by-one guard placement).
2. **Receive-drain loop**: every cycle passes ``host net_recv`` whose
   result is immediately tested for the -1 timeout sentinel
   (``local_set R / local_get R / push 0 / lts / jnz exit``). The
   executor delivers at most ``manifest.max_packets_received`` packets,
   after which ``net_recv`` can only time out, so trips are bounded by
   that ceiling (+2 slack for the final timeout pass).

Nested loops collapse into one SCC; those are bounded hierarchically:
once a counted shell is found, its increment/guard nodes are peeled off,
the remaining cyclic sub-SCCs are bounded recursively, and trip counts
multiply (an inner node runs at most outer-trips × inner-trips times —
the reset-tolerant counter rule above is what makes re-entry sound).

Functions whose reachable code includes an instruction that cannot reach
any exit can never terminate; that is reported separately (V302) as a
guaranteed fuel-exhaustion trap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sandbox.isa import FUEL_COST, Op
from repro.sandbox.module import ENTRY_POINT, Module
from repro.sandbox.verifier import diagnostics as d
from repro.sandbox.verifier.cfg import FunctionCFG, has_cycle, tarjan_sccs
from repro.sandbox.verifier.effects import is_receive

EXACT = "exact"
BOUNDED = "bounded"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class FuelVerdict:
    """Outcome of fuel analysis for one function (or the whole module)."""

    kind: str  #: ``exact`` | ``bounded`` | ``unbounded``
    bound: int | None = None  #: worst-case fuel; None iff unbounded

    @property
    def is_bounded(self) -> bool:
        return self.kind != UNBOUNDED

    def render(self) -> str:
        if self.kind == UNBOUNDED:
            return "unbounded"
        return f"{self.kind} ≤ {self.bound}"


@dataclass
class FuelEstimate:
    """Per-module fuel analysis result."""

    #: verdict for the entry point (None when the module has no entry)
    module_verdict: FuelVerdict | None
    function_verdicts: dict[str, FuelVerdict] = field(default_factory=dict)
    diagnostics: list[d.Diagnostic] = field(default_factory=list)


def estimate_module_fuel(
    module: Module,
    cfgs: dict[str, FunctionCFG],
    call_order: tuple[tuple[str, ...], frozenset[str]],
    max_instructions: int | None = None,
    max_packets_received: int | None = None,
) -> FuelEstimate:
    """Bound worst-case fuel for every function and the entry point.

    ``call_order`` is the analysis's ``(acyclic functions bottom-up,
    functions on a call cycle)``. ``max_instructions`` (the manifest fuel
    limit) upgrades an unbounded verdict to an error and triggers the V300
    limit check; ``max_packets_received`` enables the receive-drain loop
    bound. Assumes the module passed structural validation (calls resolve).
    """
    estimate = FuelEstimate(module_verdict=None)
    strict = max_instructions is not None

    # Bottom-up over the call graph; recursion (rejected structurally as
    # V103 elsewhere) leaves every function on a call-graph cycle unbounded.
    order, cyclic_functions = call_order
    for name in cyclic_functions:
        estimate.function_verdicts[name] = FuelVerdict(UNBOUNDED)

    for name in order:
        function = module.functions[name]
        cfg = cfgs[name]
        verdict, diags = _function_fuel(
            module, function, cfg, estimate.function_verdicts,
            max_packets_received, strict,
        )
        estimate.function_verdicts[name] = verdict
        estimate.diagnostics.extend(diags)

    entry_verdict = estimate.function_verdicts.get(ENTRY_POINT)
    estimate.module_verdict = entry_verdict
    if (
        entry_verdict is not None
        and entry_verdict.is_bounded
        and max_instructions is not None
        and entry_verdict.bound > max_instructions
    ):
        estimate.diagnostics.append(d.error(
            d.FUEL_EXCEEDS_LIMIT,
            f"worst-case fuel {entry_verdict.bound} exceeds the manifest "
            f"limit of {max_instructions}",
            ENTRY_POINT,
        ))
    return estimate


def _cost(module: Module, instruction, verdicts: dict[str, FuelVerdict]):
    """Fuel charged by one instruction, callee bound folded in; None if a
    callee is unbounded."""
    base = FUEL_COST[instruction.op]
    if instruction.op is Op.CALL:
        callee = verdicts.get(instruction.arg)
        if callee is None or not callee.is_bounded:
            return None
        return base + callee.bound
    return base


def _function_fuel(module, function, cfg, verdicts, max_packets, strict):
    diags: list[d.Diagnostic] = []
    name = function.name
    if not function.code:
        return FuelVerdict(EXACT, 0), diags

    # Reachable code that cannot reach an exit can never terminate.
    stuck = cfg.reachable - cfg.exit_reachable
    if stuck:
        diags.append(d.error(
            d.FUEL_NO_EXIT,
            "instruction can never reach a return — execution is "
            "guaranteed to exhaust its fuel",
            name, min(stuck),
        ))
        return FuelVerdict(UNBOUNDED), diags

    costs: dict[int, int] = {}
    for index in sorted(cfg.reachable):
        cost = _cost(module, function.code[index], verdicts)
        if cost is None:
            return FuelVerdict(UNBOUNDED), diags
        costs[index] = cost

    if not cfg.cyclic_sccs:
        return FuelVerdict(EXACT, _longest_path(cfg, costs)), diags

    node_trips: dict[int, int] = {}
    for scc in cfg.cyclic_sccs:
        bounds = _region_trips(function, cfg, scc, max_packets)
        if bounds is None:
            make = d.error if strict else d.warning
            diags.append(make(
                d.FUEL_UNBOUNDED,
                "loop does not match a bounded pattern (counted loop or "
                "receive-drain); worst-case fuel cannot be proven",
                name, min(scc),
            ))
            return FuelVerdict(UNBOUNDED), diags
        node_trips.update(bounds)

    total = sum(
        cost * node_trips.get(index, 1) for index, cost in costs.items()
    )
    # A cyclic body is always "bounded", never "exact": the Σ cost×trips
    # model is an over-approximation of the longest feasible path.
    return FuelVerdict(BOUNDED, total), diags


def _longest_path(cfg: FunctionCFG, costs: dict[int, int]) -> int:
    """Longest entry→exit path in an acyclic CFG, weighted by fuel."""
    order = _topological(cfg)
    best: dict[int, int] = {0: costs[0]}
    answer = 0
    for node in order:
        here = best.get(node)
        if here is None:
            continue
        if node in cfg.exits:
            answer = max(answer, here)
        for successor in cfg.successors[node]:
            candidate = here + costs[successor]
            if candidate > best.get(successor, -1):
                best[successor] = candidate
    return answer


def _topological(cfg: FunctionCFG) -> list[int]:
    seen: set[int] = set()
    postorder: list[int] = []
    stack: list[tuple[int, int]] = [(0, 0)]
    seen.add(0)
    while stack:
        node, child_pos = stack[-1]
        advanced = False
        children = cfg.successors[node]
        for position in range(child_pos, len(children)):
            child = children[position]
            if child not in seen:
                stack[-1] = (node, position + 1)
                seen.add(child)
                stack.append((child, 0))
                advanced = True
                break
        if not advanced:
            postorder.append(node)
            stack.pop()
    postorder.reverse()
    return postorder


def _match_run(function, cfg, scc, start, pattern) -> bool:
    """Does a linear run matching ``pattern`` start at ``start``, fully
    inside ``scc``? ``pattern`` entries are predicates over Instruction."""
    code = function.code
    length = len(pattern)
    if start + length > len(code):
        return False
    if not cfg.is_linear_run(start, length):
        return False
    for offset, predicate in enumerate(pattern):
        index = start + offset
        if index not in scc or not predicate(code[index]):
            return False
    return True


def _region_trips(
    function, cfg, scc, max_packets, depth: int = 0
) -> dict[int, int] | None:
    """Per-node trip bounds for one cyclic region, or None if unbounded.

    Tries the receive-drain pattern over the whole region, then every
    counted-loop candidate; when a counted shell leaves inner cyclic
    sub-regions behind, those are bounded recursively and their trip
    counts multiplied by the shell's.
    """
    if depth > 16:  # far deeper than any real nesting; guards recursion
        return None
    recv = _recv_loop_trips(function, cfg, scc, max_packets)
    if recv is not None:
        return {node: recv for node in scc}

    for candidate in _counted_candidates(function, cfg, scc):
        increment_nodes, guard_nodes, shell_trips = candidate
        interior = set(scc) - increment_nodes - guard_nodes
        sub_regions = [
            frozenset(sub)
            for sub in tarjan_sccs(cfg.successors, interior)
            if len(sub) > 1
            or next(iter(sub)) in cfg.successors[next(iter(sub))]
        ]
        sub_nodes = set().union(*sub_regions) if sub_regions else set()
        # Every cycle not contained in an inner region must pass both an
        # increment and a guard of the shell counter.
        if has_cycle(cfg.successors, set(scc) - increment_nodes - sub_nodes):
            continue
        if has_cycle(cfg.successors, set(scc) - guard_nodes - sub_nodes):
            continue

        result = {node: shell_trips for node in scc}
        bounded = True
        for sub in sub_regions:
            inner = _region_trips(function, cfg, sub, max_packets, depth + 1)
            if inner is None:
                bounded = False
                break
            for node, trips in inner.items():
                result[node] = shell_trips * trips
        if bounded:
            return result
    return None


def _counted_candidates(function, cfg, scc):
    """Yield ``(increment_nodes, guard_nodes, trips)`` for each local that
    works as a counted-loop induction variable for region ``scc``."""
    code = function.code
    n_params = function.n_params

    # Increment runs inside the region, grouped by candidate local.
    increments: dict[int, list[tuple[int, int]]] = {}  # local -> [(start, c)]
    for start in sorted(scc):
        instruction = code[start]
        if instruction.op is not Op.LOCAL_GET:
            continue
        local = instruction.arg
        if not isinstance(local, int) or local < n_params:
            continue  # parameters may start negative; locals start at 0
        if _match_run(function, cfg, scc, start, _increment_pattern(local)):
            increments.setdefault(local, []).append((start, code[start + 1].arg))

    candidates = []
    for local, runs in increments.items():
        if not _writes_keep_counter_nonnegative(function, cfg, scc, local):
            continue

        # Exit guards comparing the counter against a constant bound.
        guards: list[tuple[int, int]] = []  # (start, K)
        for start in sorted(scc):
            if code[start].op is not Op.LOCAL_GET or code[start].arg != local:
                continue
            for compare, branch in ((Op.GES, Op.JNZ), (Op.LTS, Op.JZ)):
                matched = _match_run(function, cfg, scc, start, [
                    lambda i: i.op is Op.LOCAL_GET and i.arg == local,
                    lambda i: i.op is Op.PUSH and isinstance(i.arg, int),
                    lambda i, c=compare: i.op is c,
                    lambda i, b=branch: i.op is b and i.arg not in scc,
                ])
                if matched:
                    guards.append((start, code[start + 1].arg))
        if not guards:
            continue

        increment_nodes = {start + k for start, _ in runs for k in range(4)}
        guard_nodes = {start + k for start, _ in guards for k in range(4)}
        smallest_step = min(step for _, step in runs)
        largest_bound = max(limit for _, limit in guards)
        trips = max(0, -(-largest_bound // smallest_step)) + 2
        candidates.append((increment_nodes, guard_nodes, trips))
    # Prefer the tightest shell when several locals qualify.
    candidates.sort(key=lambda c: c[2])
    return candidates


def _increment_pattern(local):
    return [
        lambda i: i.op is Op.LOCAL_GET and i.arg == local,
        lambda i: i.op is Op.PUSH and isinstance(i.arg, int) and i.arg >= 1,
        lambda i: i.op is Op.ADD,
        lambda i: i.op in (Op.LOCAL_SET, Op.LOCAL_TEE) and i.arg == local,
    ]


def _writes_keep_counter_nonnegative(function, cfg, scc, local) -> bool:
    """Soundness gate for counted loops: every write to ``local`` in the
    whole function is either an increment-shaped run (monotone, ≥ +1) or
    a constant reset to a non-negative value located outside the region.
    Locals start at 0, so under this rule the counter never drops below
    zero and any entry into the region obeys the ceil(K/c) trip bound."""
    code = function.code
    whole = frozenset(range(len(code)))
    for index, instruction in enumerate(code):
        if instruction.op not in (Op.LOCAL_SET, Op.LOCAL_TEE):
            continue
        if instruction.arg != local:
            continue
        is_increment = index >= 3 and _match_run(
            function, cfg, whole, index - 3, _increment_pattern(local)
        )
        if is_increment:
            continue
        is_outside_reset = (
            index not in scc
            and instruction.op is Op.LOCAL_SET
            and index >= 1
            and code[index - 1].op is Op.PUSH
            and isinstance(code[index - 1].arg, int)
            and code[index - 1].arg >= 0
            and cfg.is_linear_run(index - 1, 2)
        )
        if not is_outside_reset:
            return False
    return True


def _recv_loop_trips(function, cfg, scc, max_packets) -> int | None:
    """Trip bound for a loop drained by ``net_recv`` timeout checks."""
    if max_packets is None:
        return None
    code = function.code
    sites: list[int] = []
    for start in sorted(scc):
        if not is_receive(code[start]):
            continue
        result_local: list[int] = []

        def bind(instruction):
            if instruction.op is Op.LOCAL_SET and isinstance(instruction.arg, int):
                result_local.append(instruction.arg)
                return True
            return False

        matched = _match_run(function, cfg, scc, start, [
            is_receive,
            bind,
            lambda i: i.op is Op.LOCAL_GET
            and bool(result_local) and i.arg == result_local[0],
            lambda i: i.op is Op.PUSH and i.arg == 0,
            lambda i: i.op is Op.LTS,
            lambda i: i.op is Op.JNZ and i.arg not in scc,
        ])
        if matched:
            sites.append(start)
    if not sites:
        return None
    removed = {start + k for start in sites for k in range(6)}
    if has_cycle(cfg.successors, set(scc) - removed):
        return None
    return max_packets + 2
