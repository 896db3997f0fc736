"""Host-effect sequencing checks over CFG paths.

Every host op has an inter-call protocol the executor enforces only
dynamically: ``net_reply`` echoes the *last received* packet and is a
silent no-op when nothing was ever received; ``net_recv`` with a
non-positive timeout returns immediately (a busy-poll); a network op
whose protocol has no matching buffer traps on first use. This pass
proves the healthy sequencing ahead of time:

- **V700 reply-without-recv** (error): some CFG path reaches a
  ``net_reply`` without any ``net_recv`` having executed on it — the
  reply can never fire there, which is a program bug the marketplace
  rejects before escrow. The diagnostic carries a shortest witness path.
- **V701** (warning): a ``net_recv`` whose timeout is provably <= 0
  always returns immediately — a fuel-burning poll loop.
- **V702** (info): a ``net_recv`` timeout with no static upper bound.
- **V703** (warning): a network op with a derivable protocol but no
  matching send/receive buffer — a certain trap on first use.

The must-have-received property is a forward all-paths dataflow (join =
AND) with interprocedural summaries: per function, whether *every* path
through it performs a receive (``always_recv``) and whether a reply is
reachable from its entry before any receive (``reply_unguarded``). The
call graph is proven acyclic before this pass, so one bottom-up sweep in
the analysis's callees-first order suffices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SandboxError
from repro.sandbox.hostops import protocol_from_number
from repro.sandbox.isa import Op
from repro.sandbox.module import ENTRY_POINT, Module
from repro.sandbox.verifier import diagnostics as d
from repro.sandbox.verifier.absint import FunctionAbstract
from repro.sandbox.verifier.cfg import FunctionCFG


@dataclass(frozen=True)
class EffectSummary:
    """Receive/reply behaviour of one function, callees folded in."""

    #: every path from entry to any exit performs a net_recv
    always_recv: bool
    #: a net_reply (possibly in a callee) is reachable from entry with no
    #: net_recv executed before it
    reply_unguarded: bool


def check_effects(
    module: Module,
    cfgs: dict[str, FunctionCFG],
    bottom_up: list[str],
    outcomes: dict[str, FunctionAbstract],
) -> list[d.Diagnostic]:
    """Run all host-effect sequencing checks over the reachable functions,
    given callees before callers."""
    diags: list[d.Diagnostic] = []
    summaries: dict[str, EffectSummary] = {}

    for name in bottom_up:
        function = module.functions[name]
        cfg = cfgs[name]
        summaries[name] = _must_recv_dataflow(
            module, function, cfg, summaries,
            diags if name == ENTRY_POINT else None,
        )

    # Non-entry unguarded replies are only violations when some caller
    # reaches the call without a prior receive; _must_recv_dataflow on
    # the entry already folds that in via the summaries, so the per-site
    # diagnostics above cover the whole program. Timeout/buffer checks
    # are per-site and context-free:
    for name in sorted(bottom_up):
        for site in outcomes[name].host_sites:
            if site.op == "net_recv" and len(site.arg_intervals) == 2:
                timeout = site.arg_intervals[1]
                if timeout.hi <= 0:
                    diags.append(d.warning(
                        d.RECV_TIMEOUT_NONPOSITIVE,
                        f"net_recv timeout {timeout.render()} is never "
                        "positive: the call always returns immediately "
                        "(a fuel-burning poll)",
                        site.function, site.instruction,
                    ))
                elif timeout.hi >= (1 << 62):
                    diags.append(d.info(
                        d.RECV_TIMEOUT_UNBOUNDED,
                        f"net_recv timeout {timeout.render()} has no "
                        "useful static upper bound",
                        site.function, site.instruction,
                    ))
            if site.op in ("net_send", "net_recv") and site.protocol is not None:
                diag = _check_buffer(module, site)
                if diag is not None:
                    diags.append(diag)
    return diags


def _check_buffer(module: Module, site) -> d.Diagnostic | None:
    try:
        proto = protocol_from_number(site.protocol).name.lower()
    except SandboxError:
        return None  # V502 already covers unsupported protocols
    direction = "send" if site.op == "net_send" else "recv"
    try:
        module.buffer(f"{proto}_{direction}_buffer", f"{direction}_buffer")
    except SandboxError:
        return d.warning(
            d.MISSING_BUFFER,
            f"{site.op} uses protocol {proto!r} but the module declares "
            f"no {proto}_{direction}_buffer (a certain trap on first use)",
            site.function, site.instruction,
        )
    return None


def _must_recv_dataflow(
    module: Module,
    function,
    cfg: FunctionCFG,
    summaries: dict[str, EffectSummary],
    diags: list[d.Diagnostic] | None,
) -> EffectSummary:
    """Forward all-paths "a receive has executed" analysis of one
    function; emits V700 for the entry function (``diags`` given)."""
    code = function.code
    if not code:
        return EffectSummary(always_recv=False, reply_unguarded=False)

    # state[i]: True iff every path from entry to instruction i has
    # performed a net_recv *before* i executes. join = AND.
    state: dict[int, bool] = {0: False}
    worklist = [0]
    reply_unguarded = False
    unguarded_sites: list[tuple[int, str | None]] = []  # (index, callee)

    while worklist:
        index = worklist.pop()
        received = state[index]
        instruction = code[index]
        op, arg = instruction.op, instruction.arg

        if op is Op.HOST:
            if arg == "net_recv":
                received = True
            elif arg == "net_reply" and not state[index]:
                if (index, None) not in unguarded_sites:
                    unguarded_sites.append((index, None))
                reply_unguarded = True
        elif op is Op.CALL:
            summary = summaries.get(str(arg))
            if summary is not None:
                if summary.reply_unguarded and not state[index]:
                    if (index, str(arg)) not in unguarded_sites:
                        unguarded_sites.append((index, str(arg)))
                    reply_unguarded = True
                if summary.always_recv:
                    received = True

        for successor in cfg.successors[index]:
            known = state.get(successor)
            if known is None:
                state[successor] = received
                worklist.append(successor)
            elif known and not received:
                state[successor] = False
                worklist.append(successor)

    reachable_exits = [index for index in cfg.exits if index in state]
    always_recv = bool(reachable_exits) and all(
        _exit_received(code, state, index) for index in reachable_exits
    )

    if diags is not None:
        for index, callee in sorted(unguarded_sites):
            where = (
                "net_reply" if callee is None
                else f"call to {callee!r} (which can reply)"
            )
            diags.append(d.error(
                d.REPLY_WITHOUT_RECV,
                f"{where} is reachable with no net_recv executed on some "
                "path: the reply can never fire there",
                function.name, index,
                path=_witness_path(function, cfg, summaries, index),
            ))
    return EffectSummary(always_recv, reply_unguarded)


def _exit_received(code, state: dict[int, bool], index: int) -> bool:
    """Has a receive happened once the exit instruction completes?"""
    received = state[index]
    instruction = code[index]
    if instruction.op is Op.HOST and instruction.arg == "net_recv":
        return True
    return received


def _witness_path(
    function,
    cfg: FunctionCFG,
    summaries: dict[str, EffectSummary],
    target: int,
) -> tuple[str, ...]:
    """Shortest CFG path entry -> ``target`` avoiding any net_recv (and
    any call guaranteed to receive), rendered for ``--explain``."""
    code = function.code
    parents: dict[int, int] = {0: -1}
    queue = [0]
    position = 0
    while position < len(queue):
        index = queue[position]
        position += 1
        if index == target:
            break
        instruction = code[index]
        if instruction.op is Op.HOST and instruction.arg == "net_recv":
            continue  # a receive on the path would guard the reply
        if instruction.op is Op.CALL:
            summary = summaries.get(str(instruction.arg))
            if summary is not None and summary.always_recv:
                continue
        for successor in cfg.successors[index]:
            if successor not in parents:
                parents[successor] = index
                queue.append(successor)
    if target not in parents:
        return ()
    indices: list[int] = []
    cursor = target
    while cursor != -1:
        indices.append(cursor)
        cursor = parents[cursor]
    indices.reverse()
    interesting = [
        index for index in indices
        if code[index].op in (Op.HOST, Op.CALL, Op.JZ, Op.JNZ)
        or index in (indices[0], indices[-1])
    ]
    steps = tuple(
        f"{function.name}@{index} {code[index]}" for index in interesting
    )
    if len(steps) > 12:
        steps = steps[:6] + ("...",) + steps[-5:]
    return steps
