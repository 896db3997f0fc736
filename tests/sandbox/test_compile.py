"""Unit tests for the compiled execution tier (repro.sandbox.compile).

The differential fuzz suite (tests/properties/test_prop_tier_equivalence)
proves bit-identical behaviour statistically; these tests pin down the
individual contract points — tier selection, fuel/trap equality at exact
boundaries, suspend/resume, check elision, and the bail-to-replay
fallback — with hand-picked programs where the expected values are known.
"""

import pytest

from repro.common.errors import FuelExhausted, MemoryFault, SandboxError
from repro.sandbox.assembler import assemble
from repro.sandbox.compile import (
    CompileUnsupported,
    compile_module,
    get_compiled,
)
from repro.sandbox.isa import Instruction, Op
from repro.sandbox.module import Function, Module
from repro.sandbox.programs import echo_client, echo_server
from repro.sandbox.vm import VM, Done, HostCall
from repro.netsim import Protocol
from repro.netsim.packet import Address


def _module(body: str, *, memory: int = 4096, extra: str = "") -> Module:
    return assemble(
        f".memory {memory}\n.func run_debuglet 0 1\n{body}\nret\n.end\n{extra}"
    )


def _bad_local_module() -> Module:
    """Passes assembly-level checks we bypass, fails gather_facts."""
    entry = Function(
        name="run_debuglet",
        n_params=0,
        n_locals=1,
        code=[Instruction(Op.LOCAL_GET, 7), Instruction(Op.RET)],
    )
    return Module(functions={"run_debuglet": entry}, memory_size=64)


def _both(module: Module, fuel: int = 1_000_000) -> tuple[VM, VM]:
    return (
        VM(module, fuel_limit=fuel, tier="reference"),
        VM(module, fuel_limit=fuel, tier="compiled"),
    )


class TestTierSelection:
    def test_default_is_reference(self):
        vm = VM(_module("push 1"))
        assert vm.tier == "reference"

    def test_compiled_tier_selected_for_valid_module(self):
        vm = VM(_module("push 1"), tier="compiled")
        assert vm.tier == "compiled"

    def test_auto_selects_compiled_for_valid_module(self):
        vm = VM(_module("push 1"), tier="auto")
        assert vm.tier == "compiled"

    def test_unknown_tier_rejected(self):
        with pytest.raises(SandboxError, match="unknown VM tier"):
            VM(_module("push 1"), tier="turbo")

    def test_auto_falls_back_to_reference_for_unprovable_module(self):
        # A bad local index fails gather_facts but still interprets
        # (trapping at runtime), so "auto" degrades gracefully.
        assert VM(_bad_local_module(), tier="auto").tier == "reference"

    def test_compiled_tier_raises_for_unprovable_module(self):
        with pytest.raises(SandboxError, match="not provable"):
            VM(_bad_local_module(), tier="compiled")

    def test_out_of_range_global_blocks_compilation(self):
        base = _module("push 1")
        module = Module(
            functions=base.functions,
            memory_size=base.memory_size,
            globals={"g": -5},
        )
        with pytest.raises(CompileUnsupported):
            compile_module(module)
        assert VM(module, tier="auto").tier == "reference"

    def test_recursion_blocks_compilation(self):
        module = assemble(
            ".memory 64\n.func run_debuglet 0 0\ncall run_debuglet\nret\n.end"
        )
        with pytest.raises(CompileUnsupported):
            compile_module(module)
        assert VM(module, tier="auto").tier == "reference"

    def test_stock_programs_all_compile(self):
        stocks = (
            echo_client(Protocol.UDP, Address(20, 2), count=3),
            echo_server(Protocol.UDP, max_echoes=3),
        )
        for stock in stocks:
            assert VM(stock.module, tier="auto").tier == "compiled"


def _unprovable_modules():
    from tests.sandbox.test_analysis_equivalence import (
        _facts_unavailable, _rejected,
    )

    cases = _facts_unavailable()
    return [
        ("recursive call", cases["facts_recursion"][0]),
        ("call depth", cases["facts_call_depth"][0]),
        ("value-stack depth", cases["facts_value_stack_peak"][0]),
        ("unsigned 64-bit", cases["facts_global_outside_u64"][0]),
        ("operand-stack discipline", _rejected()["V200_underflow"][0]),
        ("local index 7 out of range", _bad_local_module()),
    ]


class TestDegradedMode:
    """``FactsUnavailable`` forces the reference tier — same behaviour,
    and the run says that it happened and why (ROADMAP 5(f))."""

    @pytest.mark.parametrize(
        "cause,module", _unprovable_modules(),
        ids=[cause for cause, _ in _unprovable_modules()],
    )
    def test_reference_tier_is_forced_counted_and_named(self, cause, module):
        from repro.obs import Observability

        from tests.properties.test_prop_tier_equivalence import _run_session

        bundle = Observability.enabled()
        assert VM(module, tier="auto", obs=bundle).tier == "reference"
        reference = _run_session(module, "reference", 1_000_000, [0], [])
        assert _run_session(module, "auto", 1_000_000, [0], []) == reference[1:]

        VM(module, tier="auto", obs=bundle)  # second sight: a plain hit
        (row,) = [
            (dict(labels), metric.value)
            for _, name, labels, metric in bundle.metrics.snapshot()
            if name == "vm_compile_unsupported_total"
        ]
        assert cause in row[0]["reason"] and row[1] == 1

        with pytest.raises(SandboxError, match="not provable.*" + cause):
            VM(module, tier="compiled")

    def test_no_series_in_runs_that_never_degrade(self):
        from repro.obs import Observability, to_prometheus

        bundle = Observability.enabled()
        assert VM(_module("push 1"), tier="auto", obs=bundle).tier == "compiled"
        assert "unsupported" not in to_prometheus(bundle.metrics)


class TestExactEquivalence:
    def test_done_value_and_fuel_match(self):
        module = _module("push 6\npush 7\nmul")
        ref, fast = _both(module)
        assert ref.start([]) == fast.start([]) == Done(42)
        assert ref.fuel_used == fast.fuel_used
        assert ref.finished and fast.finished

    def test_fuel_trap_at_every_boundary(self):
        module = _module(
            "push 0\nlocal_set 0\n"
            "loop:\nlocal_get 0\npush 1\nadd\nlocal_set 0\n"
            "local_get 0\npush 20\nlts\njnz loop\nlocal_get 0"
        )
        for fuel in range(1, 40):
            ref, fast = _both(module, fuel=fuel)
            ref_out = fast_out = None
            ref_err = fast_err = None
            try:
                ref_out = ref.start([])
            except SandboxError as exc:
                ref_err = (type(exc), str(exc))
            try:
                fast_out = fast.start([])
            except SandboxError as exc:
                fast_err = (type(exc), str(exc))
            assert ref_out == fast_out
            assert ref_err == fast_err
            assert ref.fuel_used == fast.fuel_used, f"fuel_limit={fuel}"

    def test_a_store_settles_the_operands_that_read_its_target(self):
        # ``local_get 0`` is still symbolic when ``local_set 0`` runs
        module = _module("push 3\nlocal_set 0\nlocal_get 0\npush 4\n"
                         "local_set 0\nlocal_get 0\nsub")
        ref, fast = _both(module)
        assert ref.start([]) == fast.start([]) == Done(-1)

    def test_division_trap_message_identical(self):
        module = _module("push 1\npush 0\ndivs")
        ref, fast = _both(module)
        with pytest.raises(SandboxError) as ref_exc:
            ref.start([])
        with pytest.raises(SandboxError) as fast_exc:
            fast.start([])
        assert type(ref_exc.value) is type(fast_exc.value)
        assert str(ref_exc.value) == str(fast_exc.value)
        assert ref.fuel_used == fast.fuel_used

    def test_memory_trap_identical_for_dynamic_address(self):
        module = _module("push 100000\nload64")
        ref, fast = _both(module)
        with pytest.raises(MemoryFault) as ref_exc:
            ref.start([])
        with pytest.raises(MemoryFault) as fast_exc:
            fast.start([])
        assert str(ref_exc.value) == str(fast_exc.value)
        assert ref.fuel_used == fast.fuel_used

    def test_suspend_resume_roundtrip(self):
        module = _module("host now_us\npush 5\nadd")
        ref, fast = _both(module)
        ref_call, fast_call = ref.start([]), fast.start([])
        assert isinstance(fast_call, HostCall)
        assert ref_call == fast_call
        assert ref.fuel_used == fast.fuel_used
        assert ref.resume([37]) == fast.resume([37]) == Done(42)
        assert ref.fuel_used == fast.fuel_used

    def test_fuel_exhaustion_mid_host_sequence(self):
        module = _module("host now_us\ndrop\nhost now_us")
        # HOST costs 16; budget for the first call plus one instruction.
        ref, fast = _both(module, fuel=17)
        assert ref.start([]) == fast.start([])
        with pytest.raises(FuelExhausted) as ref_exc:
            ref.resume([1])
        with pytest.raises(FuelExhausted) as fast_exc:
            fast.resume([1])
        assert str(ref_exc.value) == str(fast_exc.value)
        assert ref.fuel_used == fast.fuel_used


class TestLayout:
    """Function shapes the region layout must get right."""

    @pytest.mark.parametrize("body", [
        "push 1\nret\ndead:\njmp dead",  # a loop nothing reaches
        "push 1\nret\ndead:\npush 2\njnz dead\npush 3",
        "local_get 0\njz other\npush 5\nret\nother:\npush 6",
        "local_get 0\njz end\nloop:\nlocal_get 0\npush 1\nsub\n"
        "local_tee 0\njnz loop\nend:\nlocal_get 0",
    ])
    def test_matches_reference(self, body):
        module = assemble(f".memory 64\n.func run_debuglet 1 0\n{body}\n.end\n")
        for arg in (0, 1, 3):
            ref, fast = _both(module)
            assert fast.tier == "compiled"
            assert ref.start([arg]) == fast.start([arg])
            assert ref.fuel_used == fast.fuel_used
            assert fast._delegate is None


class TestCheckElision:
    def test_elided_constant_store_is_still_correct(self):
        module = _module("push 128\npush 9\nstore64\npush 128\nload64")
        compiled = compile_module(module)
        assert compiled.elided_checks > 0
        vm = VM(module, tier="compiled", compiled=compiled)
        assert vm.start([]) == Done(9)
        assert vm.memory[128] == 9

    def test_constant_oob_store_still_traps(self):
        module = _module("push 100000\npush 9\nstore64\npush 1")
        ref, fast = _both(module)
        with pytest.raises(MemoryFault) as ref_exc:
            ref.start([])
        with pytest.raises(MemoryFault) as fast_exc:
            fast.start([])
        assert str(ref_exc.value) == str(fast_exc.value)


#: ``address = base + (arg & 1)``: the interval is [base, base + 1], and
#: at arg 1 the access ends one byte past a 64-byte memory.
_PAST_THE_END = {
    "store64": ("push 7\nstore64\npush 0", 56),
    "load64": ("load64", 56),
    "store8": ("push 7\nstore8\npush 0", 63),
    "load8": ("load8", 63),
}


class TestWrongProofs:
    """ROADMAP 3(b): a wrong access proof traps instead of corrupting
    memory. The mutant is the verifier's in-bounds proof widened by one
    byte: facts that claim the dynamic access above is in range."""

    @staticmethod
    def _widened(monkeypatch, module: Module, lo: int) -> None:
        import repro.sandbox.compile as compile_ns

        honest = compile_ns.gather_facts
        (index,) = [i for i, instruction in enumerate(
            module.functions["run_debuglet"].code)
            if instruction.op in (Op.LOAD8, Op.LOAD64, Op.STORE8, Op.STORE64)]
        assert index not in honest(module).functions[
            "run_debuglet"].inbounds_accesses

        def widened(m: Module):
            facts = honest(m)
            facts.functions["run_debuglet"].inbounds_accesses[index] = (lo, lo + 1)
            return facts

        monkeypatch.setattr(compile_ns, "gather_facts", widened)

    @pytest.mark.parametrize("access", sorted(_PAST_THE_END))
    def test_an_elided_access_past_the_end_traps(self, monkeypatch, access):
        from repro.obs import Observability, to_prometheus

        tail, base = _PAST_THE_END[access]
        module = assemble(
            ".memory 64\n.func run_debuglet 1 0\nlocal_get 0\npush 1\nand\n"
            f"push {base}\nadd\n{tail}\nret\n.end\n"
        )
        self._widened(monkeypatch, module, base)
        compiled = compile_module(module)  # not the process cache
        assert compiled.elided_ranged == 1
        bundle = Observability.enabled()
        ref = VM(module)
        fast = VM(module, tier="compiled", compiled=compiled, obs=bundle)
        memory = fast.memory
        with pytest.raises(MemoryFault) as ref_exc:
            ref.start([1])
        try:
            outcome = fast.start([1])
        except MemoryFault as exc:
            outcome = exc
        # unchecked slice forms would grow memory or read short bytes
        assert len(memory) == len(fast.memory) == 64
        assert isinstance(outcome, MemoryFault), outcome
        assert str(outcome) == str(ref_exc.value)
        assert fast.fuel_used == ref.fuel_used
        assert bytes(fast.memory) == bytes(ref.memory)
        assert fast.bail_reason == "access"
        assert "vm_compile_access_faults_total 1" in to_prometheus(
            bundle.metrics)

        # in range after all: no bail, the same result, no series
        bundle = Observability.enabled()
        fast = VM(module, tier="compiled", compiled=compiled, obs=bundle)
        assert fast.start([0]) == VM(module).start([0])
        assert fast.bail_reason is None
        assert "access_faults" not in to_prometheus(bundle.metrics)

    def test_a_trap_bail_is_told_apart(self):
        from repro.obs import Observability, to_prometheus

        module = _module("push 1\npush 0\ndivs")
        bundle = Observability.enabled()
        fast = VM(module, tier="compiled", obs=bundle)
        with pytest.raises(SandboxError):
            fast.start([])
        assert fast.bail_reason == "trap"
        assert "access_faults" not in to_prometheus(bundle.metrics)


class TestFallbackReplay:
    def test_resume_with_wrong_arity_matches_reference(self):
        module = _module("host now_us\npush 5\nadd")
        ref, fast = _both(module)
        ref.start([])
        fast.start([])
        # Embedder misuse: now_us returns one value, resume with none.
        # The compiled tier cannot express the reference's mid-instruction
        # underflow, so it must replay on the reference interpreter and
        # surface the identical trap.
        with pytest.raises(SandboxError) as ref_exc:
            ref.resume([])
        with pytest.raises(SandboxError) as fast_exc:
            fast.resume([])
        assert type(ref_exc.value) is type(fast_exc.value)
        assert str(ref_exc.value) == str(fast_exc.value)
        assert ref.fuel_used == fast.fuel_used
        assert bytes(ref.memory) == bytes(fast.memory)

    def test_execution_continues_on_fallback_vm_after_bail(self):
        # Trap once via fuel, then confirm the VM's post-trap state is
        # byte-identical to the reference (replay reconstructed it).
        module = _module(
            "push 8\npush 11\nstore64\nhost now_us\ndrop\n"
            "push 0\nlocal_set 0\n"
            "loop:\nlocal_get 0\npush 1\nadd\nlocal_set 0\n"
            "local_get 0\npush 1000\nlts\njnz loop\nlocal_get 0"
        )
        ref, fast = _both(module, fuel=200)
        assert ref.start([]) == fast.start([])
        with pytest.raises(FuelExhausted):
            ref.resume([0])
        with pytest.raises(FuelExhausted):
            fast.resume([0])
        assert ref.fuel_used == fast.fuel_used
        assert bytes(ref.memory) == bytes(fast.memory)
        assert not ref.finished and not fast.finished

    def test_write_memory_is_replayed_through_fallback(self):
        # The embedder writes memory between host calls; a later trap
        # forces a replay, which must re-apply that write to land on the
        # same final memory image.
        module = _module("host now_us\ndrop\npush 64\nload64\npush 0\ndivs")
        ref, fast = _both(module)
        assert ref.start([]) == fast.start([])
        payload = (123456789).to_bytes(8, "little")
        ref.write_memory(64, payload)
        fast.write_memory(64, payload)
        with pytest.raises(SandboxError) as ref_exc:
            ref.resume([0])
        with pytest.raises(SandboxError) as fast_exc:
            fast.resume([0])
        assert str(ref_exc.value) == str(fast_exc.value)
        assert bytes(ref.memory) == bytes(fast.memory)
        assert fast.memory[64:72] == payload


class TestCompiledModuleMetadata:
    def test_compile_records_static_facts(self):
        module = echo_client(Protocol.UDP, Address(20, 2), count=3).module
        compiled = compile_module(module)
        assert compiled.code_hash == module.code_hash()
        assert compiled.call_depth >= 1
        assert compiled.value_stack_peak >= 1
        assert list(compiled.functions) == list(module.functions)
        assert compiled.functions["run_debuglet"] is compiled.entry

    def test_get_compiled_returns_none_for_unsupported(self):
        assert get_compiled(_bad_local_module()) is None
