"""The compiled tier's generated source: one ``compile()`` per shape, and
no module text in it.

Modules that differ only in push immediates or proven constant addresses
share one compiled factory and still each compute their own result and
fuel; modules whose verifier facts differ get their own. The generated
text depends on nothing but the module (not on the process's string-hash
seed), and names chosen by a module's author — functions, globals,
buffers — never reach it, however they are spelled.
"""

import builtins
import os
import subprocess
import sys

import pytest

import repro.sandbox.compile as compile_module_ns
from repro.common.errors import SandboxError
from repro.sandbox.assembler import assemble
from repro.sandbox.compile import _shape_key, compile_module, generated_source
from repro.sandbox.isa import Instruction, Op
from repro.sandbox.module import BufferSpec, Function, Module
from repro.sandbox.verifier.facts import gather_facts
from repro.sandbox.vm import VM, HostCall
from tests.properties.test_prop_tier_equivalence import _run_session


@pytest.fixture
def compiles(monkeypatch):
    """Every ``compile()`` the compiled tier makes, counted."""
    calls: list[str] = []

    def counting(source, *args, **kwargs):
        calls.append(source)
        return builtins.compile(source, *args, **kwargs)

    monkeypatch.setattr(compile_module_ns, "compile", counting, raising=False)
    return calls


def _counter(memory: int, step: int, start: int = 0) -> Module:
    """A counted loop whose body stores and reloads at a constant address."""
    return assemble(f"""
.memory {memory}
.func run_debuglet 1 1
    push {start}
    local_set 1
loop:
    push 40
    local_get 1
    store64
    push 40
    load64
    push {step}
    add
    local_set 1
    local_get 1
    local_get 0
    lts
    jnz loop
    local_get 1
.end
""")


def _store_at(address: int, memory: int = 4104) -> Module:
    return assemble(
        f".memory {memory}\n.func run_debuglet 0 0\n"
        f"push {address}\npush 9\nstore64\npush {address}\nload64\nret\n.end\n"
    )


class TestShapeMemo:
    def test_immediates_share_one_factory(self, compiles):
        first = _counter(4168, step=3)
        compile_module(first)
        del compiles[:]
        for step, start in ((5, 1), (7, 100), (2 ** 64 - 1, 2 ** 63)):
            module = _counter(4168, step=step, start=start)
            assert _shape_key(module, gather_facts(module)) == _shape_key(
                first, gather_facts(first))
            compile_module(module)
            vm = VM(module, tier="compiled", compiled=compile_module(module))
            reference = VM(module, tier="reference")
            assert vm.start([50]) == reference.start([50])
            assert vm.fuel_used == reference.fuel_used
            assert vm._delegate is None
        assert compiles == []

    def test_constant_addresses_share_one_factory(self, compiles):
        compile_module(_store_at(128))
        del compiles[:]
        for address in (256, 4096):
            module = _store_at(address)
            compiled = compile_module(module)
            assert compiled.elided_const == 2
            vm = VM(module, tier="compiled", compiled=compiled)
            assert vm.start([]).value == 9
            assert vm.memory[address] == 9
            assert sum(vm.memory) == 9
        assert compiles == []

    def test_different_safe_access_set_compiles_again(self, compiles):
        compile_module(_store_at(136))
        del compiles[:]
        outside = _store_at(5000)  # same text, but no access is proven
        assert compile_module(outside).elided_const == 0
        assert len(compiles) == 1
        with pytest.raises(SandboxError):
            VM(outside, tier="compiled").start([])
        reference = _run_session(outside, "reference", 1_000_000, [1], [])
        assert reference[1:] == _run_session(outside, "compiled", 1_000_000,
                                             [1], [])

    def test_different_memory_size_compiles_again(self, compiles):
        compile_module(_counter(4232, step=1))
        del compiles[:]
        compile_module(_counter(4296, step=1))
        assert len(compiles) == 1

    def test_different_block_layout_compiles_again(self, compiles):
        def module(target: str) -> Module:
            return assemble(
                ".memory 4360\n.func run_debuglet 1 0\nlocal_get 0\n"
                f"jz {target}\nnop\nfirst:\nnop\nsecond:\nnop\npush 7\n.end\n"
            )

        a, b = module("first"), module("second")
        key_a, key_b = (_shape_key(m, gather_facts(m)) for m in (a, b))
        assert key_a[1][4] != key_b[1][4]  # the leaders differ
        compile_module(a)
        del compiles[:]
        compile_module(b)
        assert len(compiles) == 1
        for m in (a, b):
            assert VM(m, tier="compiled").start([0]) == VM(m).start([0])


def test_generated_source_ignores_the_hash_seed():
    script = (
        "import hashlib\n"
        "from repro.netsim.packet import Address, Protocol\n"
        "from repro.perf import vmbench\n"
        "from repro.sandbox import programs\n"
        "from repro.sandbox.compile import generated_source\n"
        "modules = [vmbench.workload_module(n)[0] for n in vmbench.WORKLOAD_NAMES]\n"
        "modules += [\n"
        "    programs.echo_client(Protocol.UDP, Address(20, 2), count=3).module,\n"
        "    programs.echo_server(Protocol.TCP, max_echoes=3).module,\n"
        "    programs.oneway_sender(Protocol.UDP, Address(20, 2), count=3).module,\n"
        "    programs.oneway_receiver(Protocol.UDP, max_probes=3).module,\n"
        "]\n"
        "text = ''.join(generated_source(m) for m in modules)\n"
        "print(hashlib.sha256(text.encode()).hexdigest())\n"
    )

    def digest(seed: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=110, check=True,
            env=os.environ | {
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(filter(None, sys.path)),
            },
        )
        return done.stdout.strip()

    first = digest("1")
    assert len(first) == 64
    assert digest("2") == first


class TestNoModuleText:
    """Names are the author's text; the compiled tier binds them as values."""

    NAMES = {
        "callee": 'x"]; import os #',
        "other": "f():\n  pass",
        "global": "g'] = 1; raise SystemExit #",
        "buffer": "b\n__import__('os').system('false')",
    }

    def _module(self) -> Module:
        names = self.NAMES
        entry = Function("run_debuglet", 0, 1, [
            Instruction(Op.PUSH, 5),
            Instruction(Op.GLOBAL_GET, names["global"]),
            Instruction(Op.CALL, names["callee"]),
            Instruction(Op.LOCAL_SET, 0),
            Instruction(Op.LOCAL_GET, 0),
            Instruction(Op.GLOBAL_SET, names["global"]),
            Instruction(Op.PUSH, 8),
            Instruction(Op.LOCAL_GET, 0),
            Instruction(Op.STORE64),
            Instruction(Op.PUSH, 8),
            Instruction(Op.PUSH, 8),
            Instruction(Op.HOST, "result_bytes"),
            Instruction(Op.DROP),
            Instruction(Op.LOCAL_GET, 0),
            Instruction(Op.RET),
        ])
        callee = Function(names["callee"], 2, 0, [
            Instruction(Op.LOCAL_GET, 0),
            Instruction(Op.LOCAL_GET, 1),
            Instruction(Op.CALL, names["other"]),
            Instruction(Op.RET),
        ])
        other = Function(names["other"], 2, 0, [
            Instruction(Op.HOST, "now_us"),
            Instruction(Op.LOCAL_GET, 0),
            Instruction(Op.ADD),
            Instruction(Op.LOCAL_GET, 1),
            Instruction(Op.MUL),
            Instruction(Op.RET),
        ])
        return Module(
            functions={f.name: f for f in (entry, callee, other)},
            memory_size=64,
            buffers={names["buffer"]: BufferSpec(names["buffer"], 0, 32)},
            globals={names["global"]: 2 ** 64 - 3},
        )

    def test_names_never_reach_the_source(self):
        source = generated_source(self._module())
        for name in self.NAMES.values():
            assert name not in source
        for fragment in ("import", "pass", "SystemExit", "system", '"'):
            assert fragment not in source

    def test_sessions_match_the_reference(self):
        module = self._module()
        vm = VM(module, tier="compiled")
        assert vm.tier == "compiled"
        reference = VM(module)
        steps = []
        for machine in (reference, vm):
            step, trace = machine.start([]), []
            while isinstance(step, HostCall):
                trace.append((step, machine.fuel_used))
                step = machine.resume([11])
            steps.append((trace, step, machine.fuel_used, bytes(machine.memory),
                          machine.globals))
        assert steps[0] == steps[1]
        assert vm._delegate is None
        assert steps[1][1].value == ((11 + 5) * (2 ** 64 - 3)) % 2 ** 64 - 2 ** 64
