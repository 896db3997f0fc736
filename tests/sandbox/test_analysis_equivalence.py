"""Golden outputs of the three readers of a module's static analysis.

``verify_module`` (bare, with the manifest, with the manifest and an
executor policy), ``infer_capabilities`` and ``facts.gather_facts`` are
what every party in the marketplace acts on, so a change to how their
shared analysis is computed, staged or cached must not move a byte of
what they return. The corpus: the four stock programs over three
protocols and three sizes, the four vmbench modules, both ``repro verify``
fixtures, one rejected module per diagnostic family, and one module per
reason ``gather_facts`` refuses the compiled tier.

``infer_capabilities`` is recorded only for modules that pass the
structure and stack stages: on the others it was never specified (it
raised ``IndexError`` or read a garbage abstract stack), and
``tests/sandbox/test_verifier.py`` pins what it returns there now.

The golden was generated at the commit *before* the analysis was shared.
A deliberate change to a diagnostic or a fact means regenerating it::

    PYTHONPATH=src python -m tests.sandbox.test_analysis_equivalence
"""

import json
from pathlib import Path

import pytest

from repro.netsim import Protocol
from repro.netsim.packet import Address
from repro.perf import vmbench
from repro.sandbox import programs
from repro.sandbox.assembler import assemble
from repro.sandbox.isa import Instruction, Op
from repro.sandbox.manifest import DebugletPolicy, ExecutorPolicy, Manifest
from repro.sandbox.module import BufferSpec, Function, Module
from repro.sandbox.verifier import infer_capabilities, verify_module
from repro.sandbox.verifier.facts import FactsUnavailable, gather_facts
from repro.sandbox.vm import VM
from tests.sandbox import test_effects, test_taint_policy, test_verifier
from tests.sandbox.test_verifier import manifest, mod, operand_chain

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "analysis_equivalence.json"

#: error codes that stop the pipeline before any abstract interpretation
_STRUCTURE_OR_STACK = {
    "V100", "V101", "V105", "V106", "V107", "V108", "V109",
    "V200", "V201", "V202",
}

_PEER = Address(2, 1)


def _stock(kind: str, protocol: Protocol, size: int) -> programs.StockProgram:
    if kind == "echo_client":
        return programs.echo_client(protocol, _PEER, count=size, size=8 * size)
    if kind == "echo_server":
        return programs.echo_server(protocol, max_echoes=size, size=8 * size)
    if kind == "oneway_sender":
        return programs.oneway_sender(protocol, _PEER, count=size, size=8 * size)
    return programs.oneway_receiver(protocol, max_probes=size, size=8 * size)


def _fixture(name: str) -> tuple[Module, Manifest]:
    module = assemble((FIXTURES / f"{name}.dasm").read_text())
    data = json.loads((FIXTURES / f"{name}_manifest.json").read_text())
    return module, Manifest.from_dict(data)


def _with(module: Module, **fields) -> Module:
    base = dict(
        functions=module.functions, memory_size=module.memory_size,
        buffers=module.buffers, globals=module.globals,
    )
    base.update(fields)
    return Module(**base)


_RECV_DRAIN = """
.memory 4096
.func run_debuglet 0 1
loop:
    push 17
    push 1000
    host net_recv
    local_set 0
    local_get 0
    push 0
    lts
    jnz done
    jmp loop
done:
    push 0
    ret
.end
"""


def _rejected() -> dict[str, tuple[Module, Manifest]]:
    """One module per diagnostic family, sources as in the unit tests."""
    policy = DebugletPolicy(emit_sources=("time",), max_send_size=64)
    net_send_tcp = list(test_verifier.NET_SEND_TCP)
    return {
        "V100_jump_out_of_range": (
            mod([Instruction(Op.JMP, 99), Instruction(Op.RET)]), manifest()),
        "V106_missing_entry": (
            Module(functions={"other": Function(
                "other", 0, 0, [Instruction(Op.RET)])}, memory_size=4096),
            manifest()),
        "V101_unknown_call": (
            mod([Instruction(Op.CALL, "ghost"), Instruction(Op.RET)]),
            manifest()),
        "V102_dead_code": (
            mod([Instruction(Op.PUSH, 1), Instruction(Op.RET),
                 Instruction(Op.PUSH, 2)]), manifest()),
        "V200_underflow": (
            mod([Instruction(Op.ADD), Instruction(Op.RET)]), manifest()),
        "V202_join_mismatch": (
            mod([Instruction(Op.PUSH, 1), Instruction(Op.JZ, 3),
                 Instruction(Op.PUSH, 9), Instruction(Op.RET)]), manifest()),
        "V300_over_limit": (
            mod([Instruction(Op.PUSH, 0)] * 50 + [Instruction(Op.RET)]),
            manifest(max_instructions=10)),
        "V301_data_dependent_loop": (
            mod([Instruction(Op.HOST, "rand_u32"), Instruction(Op.JNZ, 0),
                 Instruction(Op.PUSH, 0), Instruction(Op.RET)]), manifest()),
        "V301_recv_drain": (
            assemble(_RECV_DRAIN), manifest(max_packets_received=5)),
        "V302_no_exit": (mod([Instruction(Op.JMP, 0)]), manifest()),
        "V400_store_out_of_bounds": (
            mod([Instruction(Op.PUSH, 100_000), Instruction(Op.PUSH, 1),
                 Instruction(Op.STORE64), Instruction(Op.PUSH, 0),
                 Instruction(Op.RET)]), manifest()),
        "V401_dynamic_address": (
            mod([Instruction(Op.LOCAL_GET, 0), Instruction(Op.LOAD64),
                 Instruction(Op.RET)], n_params=1, n_locals=0), manifest()),
        "V402_division_by_zero": (
            mod([Instruction(Op.PUSH, 1), Instruction(Op.PUSH, 0),
                 Instruction(Op.DIVS), Instruction(Op.RET)]), manifest()),
        "V500_undeclared_capability": (mod(net_send_tcp), manifest()),
        "V502_unsupported_protocol": (
            mod([Instruction(Op.PUSH, 99)] + net_send_tcp[1:]), manifest()),
        "V503_dynamic_protocol": (
            mod([Instruction(Op.LOCAL_GET, 0)] + net_send_tcp[1:],
                n_params=1, n_locals=0), manifest()),
        "V600_exfiltration": (
            assemble(test_taint_policy.EXFIL),
            test_taint_policy.manifest(policy=policy)),
        "V603_send_over_policy": (
            assemble(test_taint_policy.SENDER.format(size=128)),
            test_taint_policy.manifest(policy=policy)),
        "V605_contact_out_of_range": (
            assemble(test_taint_policy.SENDER.replace(
                "push 0\n    push 9000", "push 3\n    push 9000",
            ).format(size=8)),
            test_taint_policy.manifest(policy=DebugletPolicy())),
        "V700_reply_without_recv": (
            assemble(test_effects.REPLY_NO_RECV), manifest()),
        "V701_V703_poll_without_buffer": (
            assemble(
                ".memory 4096\n.func run_debuglet 0 1\npush 17\npush 0\n"
                "host net_recv\nlocal_set 0\npush 0\nret\n.end\n"
            ), manifest()),
    }


def _facts_unavailable() -> dict[str, tuple[Module, Manifest]]:
    """One module per reason the compiled tier is refused."""
    plain = mod([Instruction(Op.PUSH, 1), Instruction(Op.RET)])
    per_frame = VM.MAX_VALUE_STACK // (VM.MAX_STACK_DEPTH - 1) + 1
    return {
        "facts_fails_validation": (
            _with(plain, buffers={"b": BufferSpec("b", 4000, 200)}),
            manifest()),
        "facts_global_outside_u64": (
            _with(plain, globals={"g": -5}), manifest()),
        "facts_recursion": (
            assemble(".memory 64\n.func run_debuglet 0 0\n"
                     "call run_debuglet\nret\n.end"), manifest()),
        "facts_call_depth": (
            operand_chain(VM.MAX_STACK_DEPTH + 1), manifest()),
        "facts_value_stack_peak": (
            operand_chain(VM.MAX_STACK_DEPTH - 1, per_frame), manifest()),
    }


def corpus() -> dict[str, tuple[Module, Manifest]]:
    cases: dict[str, tuple[Module, Manifest]] = {}
    for kind in ("echo_client", "echo_server", "oneway_sender", "oneway_receiver"):
        for protocol in (Protocol.UDP, Protocol.TCP, Protocol.ICMP):
            for size in (3, 20, 200):
                stock = _stock(kind, protocol, size)
                cases[f"{kind}-{protocol.name.lower()}-{size}"] = (
                    stock.module, stock.manifest)
    for name in vmbench.WORKLOAD_NAMES:
        cases[f"vmbench-{name}"] = (vmbench.workload_module(name)[0], manifest())
    for name in ("exfil", "clean_sender"):
        cases[f"fixture-{name}"] = _fixture(name)
    cases.update(_rejected())
    cases.update(_facts_unavailable())
    return cases


def _facts(module: Module) -> dict:
    try:
        facts = gather_facts(module)
    except FactsUnavailable as exc:
        return {"unavailable": str(exc)}
    return {
        "value_stack_peak": facts.value_stack_peak,
        "call_depth": facts.call_depth,
        "functions": [
            {
                "name": f.name,
                "leaders": list(f.leaders),
                "block_fuel": sorted(f.block_fuel.items()),
                "safe_accesses": sorted(f.safe_accesses.items()),
                "depth_in": sorted(f.depth_in.items()),
                "inbounds_accesses": sorted(f.inbounds_accesses.items()),
            }
            for f in facts.functions.values()
        ],
    }


def snapshot(module: Module, declared: Manifest) -> dict:
    """Everything the three readers say about one module, JSON-shaped."""
    bare = verify_module(module).as_dict()
    stopped_early = any(
        diag["severity"] == "error" and diag["code"] in _STRUCTURE_OR_STACK
        for diag in bare["diagnostics"]
    )
    capabilities = None
    if not stopped_early:
        used, derivable = infer_capabilities(module)
        capabilities = [sorted(used), derivable]
    return json.loads(json.dumps({
        "verify": bare,
        "verify_manifest": verify_module(module, declared).as_dict(),
        "verify_policy": verify_module(
            module, declared, ExecutorPolicy()).as_dict(),
        "capabilities": capabilities,
        "facts": _facts(module),
    }))


_CORPUS = corpus()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_corpus(golden):
    assert sorted(golden) == sorted(_CORPUS)


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_readers_match_golden(golden, name):
    assert snapshot(*_CORPUS[name]) == golden[name]


def test_corpus_reaches_every_family_and_cause(golden):
    """The corpus is only a safety net if it really contains what its
    names promise: every diagnostic family and every refusal reason."""
    seen = {
        diag["code"]
        for case in golden.values()
        for key in ("verify", "verify_manifest", "verify_policy")
        for diag in case[key]["diagnostics"]
    }
    for family in ("V10", "V20", "V30", "V40", "V50", "V60", "V70"):
        assert any(code.startswith(family) for code in seen), family
    assert {"V102", "V103", "V104", "V302"} <= seen
    reasons = " | ".join(
        case["facts"]["unavailable"]
        for case in golden.values() if "unavailable" in case["facts"]
    )
    for reason in ("fails validation", "unsigned 64-bit", "recursive call",
                   "call depth", "value-stack depth", "not provable"):
        assert reason in reasons, reason


if __name__ == "__main__":
    # one case per line: small file, per-case diffs
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(snapshot(*case), sort_keys=True)}"
        for name, case in sorted(_CORPUS.items())
    ) + "\n}\n")
    print(f"wrote {GOLDEN} ({len(_CORPUS)} cases)")
