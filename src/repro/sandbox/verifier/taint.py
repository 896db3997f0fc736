"""Module-level taint/provenance analysis and emission-policy checks.

Builds on the per-function interval+taint interpretation in
:mod:`.absint`: this module runs the *interprocedural* fixpoint — memory
region taints, global taints, parameter values joined over call sites,
and return summaries — until nothing changes, then checks the result
against a manifest's declarative :class:`~repro.sandbox.manifest
.DebugletPolicy`.

What the fixpoint computes (all over-approximations):

- **memory**: which byte ranges of linear memory may hold data derived
  from each ``net_recv``/``now_us``/``rand_u32`` call site. ``net_recv``
  itself taints the protocol's receive buffer (header and payload) with
  ``net`` and ``time`` provenance — the header carries the receive
  timestamp.
- **globals**: the joined taint of every value stored to each global.
- **functions**: joined abstract argument values per callee and a joined
  abstract return value per function (the call graph is proven acyclic
  before this pass runs, so plain iteration converges).

The fixpoint is dependency-aware: a round re-interprets a function only
when something it *reads* of that context changed since its last run
(see :func:`analyze_module`), so the cost of a confirming round is
proportional to what the previous round moved, not to the module. The
result is one stage of the module's shared
:class:`~.analysis.ModuleAnalysis`; :func:`check_policy` is what the
asker adds.

The policy checks then prove, per reachable host site, that

- ``result_i64``/``result_bytes`` emit only data whose provenance kinds
  the policy's ``emit_sources`` declares (V600), with the offending
  source -> store -> emit dataflow path attached;
- ``net_send``/``net_reply`` sizes are provably within the send buffer
  (V602, intrinsic — a provable runtime trap) and the policy's
  ``max_send_size`` (V603);
- ``net_send`` ports and contact indices are in range (V604, V605);
- every derivable protocol is in the policy's allow-list (V606).

A declared-but-unused emission source is reported as info (V607).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import SandboxError
from repro.sandbox.hostops import protocol_from_number
from repro.sandbox.isa import Op
from repro.sandbox.module import Module
from repro.sandbox.verifier import diagnostics as d
from repro.sandbox.verifier.absint import (
    NO_TAINT,
    AnalysisContext,
    FunctionAbstract,
    FunctionSummary,
    HostSite,
    Tag,
    TaintSet,
    analyze_function,
    join_vals,
)
from repro.sandbox.verifier.cfg import FunctionCFG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sandbox.manifest import Manifest

#: provenance kinds a policy may declare
EMIT_KINDS = ("net", "time", "rand")

#: outer fixpoint iterations before falling back to "everything tainted"
_MAX_ITERATIONS = 8

#: segments kept per memory map before collapsing to one coarse segment
_MAX_SEGMENTS = 64

_VALID_PORT = (0, 65535)

_LOAD_OPS = (Op.LOAD8, Op.LOAD64)


class MemoryTaint:
    """May-taint map over linear memory: disjoint ``[lo, hi)`` segments,
    each with the tags that may have been stored there, plus the store
    site first observed writing each tag (for dataflow-path rendering).
    Monotone: writes only ever add tags."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._segments: list[tuple[int, int, TaintSet]] = []
        self.store_sites: dict[Tag, tuple[str, int]] = {}
        #: bumped whenever the map grows, i.e. whenever a read may change
        self.generation = 0

    def read(self, lo: int, hi: int) -> TaintSet:
        tags: set[Tag] = set()
        for seg_lo, seg_hi, seg_tags in self._segments:
            if seg_lo < hi and lo < seg_hi:
                tags |= seg_tags
        return frozenset(tags)

    def write(
        self, lo: int, hi: int, taint: TaintSet, site: tuple[str, int]
    ) -> bool:
        """Merge a store of ``taint`` over ``[lo, hi)``; True if the map
        grew (some byte gained a tag it did not have)."""
        if not taint or hi <= lo:
            return False
        for tag in taint:
            self.store_sites.setdefault(tag, site)
        if taint <= self.read(lo, hi) and self._covered(lo, hi):
            return False
        self._segments.append((lo, hi, taint))
        self._normalize()
        self.generation += 1
        return True

    def _covered(self, lo: int, hi: int) -> bool:
        """Is every byte of ``[lo, hi)`` inside some segment?"""
        cursor = lo
        for seg_lo, seg_hi, _ in sorted(self._segments):
            if seg_lo > cursor:
                return False
            if seg_hi > cursor:
                cursor = seg_hi
            if cursor >= hi:
                return True
        return cursor >= hi

    def _normalize(self) -> None:
        segments = sorted(self._segments)
        merged: list[tuple[int, int, TaintSet]] = []
        for lo, hi, tags in segments:
            if merged and lo <= merged[-1][1] and tags == merged[-1][2]:
                last = merged.pop()
                merged.append((last[0], max(last[1], hi), tags))
            else:
                merged.append((lo, hi, tags))
        if len(merged) > _MAX_SEGMENTS:
            # Precision valve: collapse to one coarse segment.
            all_tags = frozenset().union(*(t for _, _, t in merged))
            merged = [(merged[0][0], merged[-1][1], all_tags)]
        self._segments = merged


@dataclass
class ModuleDataflow:
    """Result of the interprocedural fixpoint over one module."""

    outcomes: dict[str, FunctionAbstract] = field(default_factory=dict)
    memory_taint: MemoryTaint | None = None
    global_taints: dict[str, TaintSet] = field(default_factory=dict)
    #: False when the fixpoint hit its iteration cap; taint facts are
    #: then unusable and policy checks must refuse to certify.
    converged: bool = True

    def host_sites(self) -> list[HostSite]:
        sites: list[HostSite] = []
        for name in sorted(self.outcomes):
            sites.extend(self.outcomes[name].host_sites)
        return sites


def _recv_buffer(module: Module, protocol_number: int):
    try:
        protocol = protocol_from_number(protocol_number)
        return module.buffer(
            f"{protocol.name.lower()}_recv_buffer", "recv_buffer"
        )
    except SandboxError:
        return None


def analyze_module(
    module: Module,
    cfgs: dict[str, FunctionCFG],
    reachable: list[str],
    callees: dict[str, tuple[str, ...]],
) -> ModuleDataflow:
    """Run the interprocedural interval+taint fixpoint to convergence.

    ``analyze_function`` is pure in the module and in what it reads of the
    context, and it reads the context at four points only, all decidable
    from the function's opcodes: its own ``param_values`` entry,
    ``global_taints`` at ``GLOBAL_GET``, ``memory_taint`` at loads, and
    ``summaries`` of its callees at ``CALL``. A round therefore
    re-interprets a function only when one of those moved since its last
    run; otherwise the outcome it already merged is the outcome it would
    get, and merging is idempotent.
    """
    memory = MemoryTaint(module.memory_size)
    result = ModuleDataflow(memory_taint=memory)
    context = AnalysisContext(memory_taint=memory)
    codes = {name: module.functions[name].code for name in reachable}
    globals_read = {
        name: sorted({str(i.arg) for i in code if i.op is Op.GLOBAL_GET})
        for name, code in codes.items()
    }
    loads = {n for n, code in codes.items() if any(i.op in _LOAD_OPS for i in code)}
    last_read: dict[str, tuple[object, ...]] = {}

    for _ in range(_MAX_ITERATIONS):
        changed = False
        for name in reachable:
            function = module.functions[name]
            read = (
                context.param_values.get(name) if function.n_params else None,
                tuple(context.global_taints.get(g) for g in globals_read[name]),
                memory.generation if name in loads else 0,
                tuple(context.summaries.get(c) for c in callees[name]),
            )
            if last_read.get(name) == read:
                continue
            last_read[name] = read
            outcome = analyze_function(module, function, cfgs[name], context)
            result.outcomes[name] = outcome
            if not outcome.converged:
                result.converged = False
                return result

            for write in outcome.mem_writes:
                changed |= memory.write(
                    write.lo, write.hi, write.taint,
                    (write.function, write.instruction),
                )
            for site in outcome.host_sites:
                if site.op != "net_recv":
                    continue
                tags = frozenset({
                    ("net", site.function, site.instruction),
                    ("time", site.function, site.instruction),
                })
                if site.protocol is not None:
                    buffer = _recv_buffer(module, site.protocol)
                    if buffer is None:
                        continue  # no landing buffer: runtime trap (V703)
                    lo, hi = buffer.offset, buffer.offset + buffer.size
                else:
                    lo, hi = 0, module.memory_size
                changed |= memory.write(
                    lo, hi, tags, (site.function, site.instruction)
                )
            for global_name, taint in outcome.global_writes:
                known = context.global_taints.get(global_name, NO_TAINT)
                if not taint <= known:
                    context.global_taints[global_name] = known | taint
                    changed = True
            for callee, args in outcome.call_args.items():
                known_args = context.param_values.get(callee)
                if known_args is None:
                    context.param_values[callee] = args
                    changed = True
                else:
                    joined = tuple(
                        join_vals(a, b) for a, b in zip(known_args, args)
                    )
                    if joined != known_args:
                        context.param_values[callee] = joined
                        changed = True
            summary = context.summaries.get(name)
            returns = outcome.returns
            if summary is not None and summary.returns is not None:
                returns = (
                    summary.returns if returns is None
                    else join_vals(summary.returns, returns)
                )
            if summary is None or summary.returns != returns:
                context.summaries[name] = FunctionSummary(returns)
                changed = True
        if not changed:
            result.global_taints = dict(context.global_taints)
            return result

    result.converged = False
    return result


# --------------------------------------------------------------------------
# policy checks


def _source_path(
    module: Module, memory: MemoryTaint | None, tag: Tag, site: HostSite
) -> tuple[str, ...]:
    """source -> (store ->) emit witness for one offending tag."""
    kind, function, instruction = tag
    steps = [
        f"{function}@{instruction} "
        f"{_instruction_at(module, function, instruction)} ({kind!r} source)"
    ]
    store = None if memory is None else memory.store_sites.get(tag)
    if store is not None and store != (function, instruction):
        steps.append(
            f"{store[0]}@{store[1]} "
            f"{_instruction_at(module, store[0], store[1])} (stored to memory)"
        )
    steps.append(f"{site.function}@{site.instruction} {site.op}")
    return tuple(steps)


def _instruction_at(module: Module, function: str, instruction: int) -> str:
    code = module.functions[function].code
    return str(code[instruction]) if 0 <= instruction < len(code) else "?"


def _send_buffer_size(module: Module, protocol_number: int | None) -> int | None:
    if protocol_number is None:
        return None
    try:
        protocol = protocol_from_number(protocol_number)
        buffer = module.buffer(
            f"{protocol.name.lower()}_send_buffer", "send_buffer"
        )
    except SandboxError:
        return None
    return buffer.size


def check_policy(
    module: Module,
    dataflow: ModuleDataflow,
    manifest: "Manifest | None",
) -> list[d.Diagnostic]:
    """Check emission/send facts against the manifest's policy block.

    Intrinsic certainties (a send size that always exceeds its buffer)
    are reported even without a policy; everything proof-gated — emission
    sources, send-size and protocol allow-lists — needs one.
    """
    diags: list[d.Diagnostic] = []
    policy = None if manifest is None else manifest.policy
    memory = dataflow.memory_taint

    if policy is not None and not dataflow.converged:
        diags.append(d.error(
            d.EMIT_NOT_DERIVABLE,
            "dataflow analysis did not converge; emission provenance "
            "cannot be proven against the policy",
        ))
        return diags

    used_kinds: set[str] = set()
    for site in dataflow.host_sites():
        if site.op in ("result_i64", "result_bytes"):
            taint = _emission_taint(site, memory, module)
            kinds = {tag[0] for tag in taint}
            used_kinds |= kinds
            if policy is not None:
                undeclared = kinds - set(policy.emit_sources)
                for kind in sorted(undeclared):
                    tag = min(t for t in taint if t[0] == kind)
                    diags.append(d.error(
                        d.EMIT_UNDECLARED_SOURCE,
                        f"{site.op} emits data derived from {kind!r} "
                        f"(host call at {tag[1]}@{tag[2]}) but the policy "
                        f"declares only {list(policy.emit_sources)}",
                        site.function, site.instruction,
                        path=_source_path(module, memory, tag, site),
                    ))
        elif site.op in ("net_send", "net_reply"):
            diags.extend(_check_send_site(module, site, manifest, policy))

    if policy is not None:
        for kind in sorted(set(policy.emit_sources) - used_kinds):
            diags.append(d.info(
                d.EMIT_SOURCE_UNUSED,
                f"policy declares emission source {kind!r} but no "
                "reachable emission can carry it",
            ))
    return diags


def _emission_taint(
    site: HostSite, memory: MemoryTaint | None, module: Module
) -> TaintSet:
    """Provenance of the data an emission site appends to the result."""
    taint = frozenset().union(*site.arg_taints) if site.arg_taints else NO_TAINT
    if site.op == "result_bytes" and memory is not None and site.arg_intervals:
        offset, length = site.arg_intervals
        lo = max(offset.lo, 0)
        hi = min(
            offset.hi + max(length.hi, 0), module.memory_size
        )
        if hi > lo:
            taint |= memory.read(lo, hi)
    return taint


def _check_send_site(
    module: Module,
    site: HostSite,
    manifest: "Manifest | None",
    policy,
) -> list[d.Diagnostic]:
    diags: list[d.Diagnostic] = []
    intervals = site.arg_intervals
    if not intervals:
        return diags
    size = intervals[4] if site.op == "net_send" else intervals[2]

    if site.op == "net_send":
        buffer_size = _send_buffer_size(module, site.protocol)
        if buffer_size is not None and (
            size.lo > buffer_size or size.hi < 0
        ):
            diags.append(d.error(
                d.SEND_SIZE_EXCEEDS_BUFFER,
                f"net_send size {size.render()} always exceeds the "
                f"{buffer_size}-byte send buffer (a certain runtime trap)",
                site.function, site.instruction,
            ))

        port = intervals[2]
        if port.disjoint(*_VALID_PORT):
            diags.append(d.warning(
                d.SEND_PORT_OUT_OF_RANGE,
                f"net_send destination port {port.render()} is always "
                f"outside [0, 65535]",
                site.function, site.instruction,
            ))

        if manifest is not None and policy is not None:
            # Without a policy the runtime contact check is the contract
            # (the manifest merely names the peers); a policy buys the
            # static proof that no undeclared peer can be addressed.
            contact = intervals[1]
            n_contacts = len(manifest.contacts)
            if n_contacts == 0 or not contact.within(0, n_contacts - 1):
                diags.append(d.error(
                    d.SEND_CONTACT_OUT_OF_RANGE,
                    f"net_send contact index {contact.render()} is not "
                    f"provably within the manifest's {n_contacts} declared "
                    "contact(s)",
                    site.function, site.instruction,
                ))

    if policy is not None and policy.max_send_size is not None:
        if not size.within(-1, policy.max_send_size):
            # -1 tolerated: sizes derived from a net_recv result include
            # the timeout sentinel, which the runtime clamps.
            diags.append(d.error(
                d.SEND_SIZE_EXCEEDS_POLICY,
                f"{site.op} size {size.render()} is not provably within "
                f"the policy's max_send_size of {policy.max_send_size}",
                site.function, site.instruction,
            ))

    if policy is not None and policy.allowed_protocols is not None:
        allowed = set(policy.allowed_protocols)
        if site.protocol is None:
            diags.append(d.error(
                d.PROTOCOL_NOT_ALLOWED,
                f"{site.op} protocol is not statically derivable, so the "
                f"policy's allow-list {sorted(allowed)} cannot be proven",
                site.function, site.instruction,
            ))
        else:
            try:
                name = protocol_from_number(site.protocol).name.lower()
            except SandboxError:
                name = None
            if name is not None and name not in allowed:
                diags.append(d.error(
                    d.PROTOCOL_NOT_ALLOWED,
                    f"{site.op} uses protocol {name!r} which the policy "
                    f"allow-list {sorted(allowed)} excludes",
                    site.function, site.instruction,
                ))
    return diags
