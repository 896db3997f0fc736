"""Ahead-of-time verifier: structure, stack, fuel, memory, capabilities."""

import pytest

from repro.netsim import Protocol
from repro.netsim.packet import Address
from repro.sandbox.assembler import assemble
from repro.sandbox.isa import Instruction, Op
from repro.sandbox.manifest import ExecutorPolicy, Manifest
from repro.sandbox.module import Function, Module
from repro.sandbox.programs import (
    echo_client, echo_server, oneway_receiver, oneway_sender,
)
from repro.sandbox.verifier import infer_capabilities, verify_module
from repro.sandbox.verifier.cfg import build_cfg
from repro.sandbox.verifier.fuel import BOUNDED, EXACT, UNBOUNDED


def mod(code, *, n_params=0, n_locals=4, memory=4096, extra=None):
    functions = {"run_debuglet": Function("run_debuglet", n_params, n_locals, code)}
    functions.update(extra or {})
    return Module(functions=functions, memory_size=memory)


def codes(report):
    return {diag.code for diag in report.diagnostics}


def operand_chain(frames: int, per_frame: int = 0) -> Module:
    """``run_debuglet -> f1 -> ...``: ``frames`` functions, each pushing
    ``per_frame`` operands before its call; the last pushes one more and
    returns. The worst-case value-stack depth is ``frames * per_frame + 1``,
    though no single function holds more than ``per_frame + 1``."""
    names = ["run_debuglet"] + [f"f{i}" for i in range(1, frames)]
    functions = {}
    for name, callee in zip(names, names[1:] + [None]):
        code = [Instruction(Op.PUSH, 0)] * per_frame
        if callee is not None:
            code.append(Instruction(Op.CALL, callee))
        code += [Instruction(Op.PUSH, 0), Instruction(Op.RET)]
        functions[name] = Function(name, 0, 0, code)
    return Module(functions=functions, memory_size=64)


def manifest(**kw):
    defaults = dict(
        max_instructions=100_000, max_duration=10.0, max_memory_bytes=65536,
        max_packets_sent=100, max_packets_received=100,
        capabilities=("udp",),
    )
    defaults.update(kw)
    return Manifest(**defaults)


class TestStructure:
    def test_missing_entry_point(self):
        module = Module(
            functions={"other": Function("other", 0, 0, [Instruction(Op.RET)])},
            memory_size=4096,
        )
        report = verify_module(module)
        assert not report.ok
        assert "V106" in codes(report)

    def test_jump_out_of_range(self):
        report = verify_module(mod([Instruction(Op.JMP, 99), Instruction(Op.RET)]))
        assert not report.ok
        assert "V100" in codes(report)
        diag = next(d for d in report.diagnostics if d.code == "V100")
        assert diag.function == "run_debuglet"
        assert diag.instruction == 0

    def test_unknown_call(self):
        report = verify_module(mod([
            Instruction(Op.CALL, "ghost"), Instruction(Op.RET),
        ]))
        assert not report.ok
        assert "V101" in codes(report)

    def test_unknown_host_op(self):
        report = verify_module(mod([
            Instruction(Op.HOST, "bogus"), Instruction(Op.RET),
        ]))
        assert not report.ok
        assert "V105" in codes(report)

    def test_bad_local_index(self):
        report = verify_module(mod(
            [Instruction(Op.LOCAL_GET, 9), Instruction(Op.RET)], n_locals=2,
        ))
        assert not report.ok
        assert "V107" in codes(report)

    def test_unknown_global(self):
        report = verify_module(mod([
            Instruction(Op.GLOBAL_GET, "nope"), Instruction(Op.RET),
        ]))
        assert not report.ok
        assert "V108" in codes(report)

    def test_dead_code_is_a_warning_only(self):
        report = verify_module(mod([
            Instruction(Op.PUSH, 1),
            Instruction(Op.RET),
            Instruction(Op.PUSH, 2),  # unreachable
        ]))
        assert report.ok
        assert "V102" in codes(report)


class TestCallGraph:
    def test_direct_recursion_rejected(self):
        rec = Function("rec", 0, 0, [Instruction(Op.CALL, "rec"), Instruction(Op.RET)])
        report = verify_module(mod(
            [Instruction(Op.CALL, "rec"), Instruction(Op.RET)],
            extra={"rec": rec},
        ))
        assert not report.ok
        assert "V103" in codes(report)

    def test_mutual_recursion_rejected(self):
        a = Function("a", 0, 0, [Instruction(Op.CALL, "b"), Instruction(Op.RET)])
        b = Function("b", 0, 0, [Instruction(Op.CALL, "a"), Instruction(Op.RET)])
        report = verify_module(mod(
            [Instruction(Op.CALL, "a"), Instruction(Op.RET)],
            extra={"a": a, "b": b},
        ))
        assert not report.ok
        assert "V103" in codes(report)

    def test_call_chain_deeper_than_vm_frames_rejected(self):
        from repro.sandbox.vm import VM

        depth = VM.MAX_STACK_DEPTH + 1
        extra = {}
        for i in range(1, depth):
            callee = f"f{i + 1}" if i + 1 < depth else None
            code = ([Instruction(Op.CALL, callee)] if callee else []) + [
                Instruction(Op.PUSH, 0), Instruction(Op.RET),
            ]
            extra[f"f{i}"] = Function(f"f{i}", 0, 0, code)
        report = verify_module(mod(
            [Instruction(Op.CALL, "f1"), Instruction(Op.RET)], extra=extra,
        ))
        assert not report.ok
        assert "V104" in codes(report)


class TestStack:
    def test_underflow(self):
        report = verify_module(mod([Instruction(Op.ADD), Instruction(Op.RET)]))
        assert not report.ok
        assert "V200" in codes(report)
        # Suppressed passes: no fuel verdict once the stack is broken.
        assert report.fuel is None

    def test_overflow(self):
        from repro.sandbox.vm import VM

        code = [Instruction(Op.PUSH, 0)] * (VM.MAX_VALUE_STACK + 1)
        code.append(Instruction(Op.RET))
        report = verify_module(mod(code))
        assert not report.ok
        assert "V201" in codes(report)
        assert "V203" not in codes(report)  # one finding per overflow

    def test_operand_peak_along_call_chain_rejected(self):
        """255 frames of 258 operands: no function overflows on its own,
        the chain does — and the VM traps on both tiers."""
        from repro.common.errors import SandboxError
        from repro.sandbox.vm import VM

        module = operand_chain(VM.MAX_STACK_DEPTH - 1, 258)
        report = verify_module(module)
        assert not report.ok
        assert codes(report) == {"V203"}
        diag = report.errors[0]
        assert diag.function == "run_debuglet"
        assert "65791" in diag.message and "65536" in diag.message
        assert report.fuel is None  # later stages suppressed, as after V104
        for tier in ("reference", "auto"):
            with pytest.raises(SandboxError, match="value stack overflow"):
                VM(module, tier=tier).start([])

    def test_operand_peak_at_the_ceiling_verifies_and_runs(self):
        from repro.sandbox.vm import VM, Done

        module = operand_chain(VM.MAX_STACK_DEPTH - 1, 257)  # peak 65536
        assert verify_module(module).ok
        assert VM(module).start([]) == Done(0)

    def test_join_depth_mismatch(self):
        report = verify_module(mod([
            Instruction(Op.PUSH, 1),
            Instruction(Op.JZ, 3),
            Instruction(Op.PUSH, 9),
            Instruction(Op.RET),
        ]))
        assert not report.ok
        assert "V202" in codes(report)

    def test_balanced_branches_ok(self):
        report = verify_module(mod([
            Instruction(Op.PUSH, 1),
            Instruction(Op.JZ, 4),
            Instruction(Op.PUSH, 9),
            Instruction(Op.RET),
            Instruction(Op.PUSH, 3),
            Instruction(Op.RET),
        ]))
        assert report.ok


class TestFuel:
    def test_straightline_is_exact(self):
        report = verify_module(mod([
            Instruction(Op.PUSH, 1), Instruction(Op.RET),
        ]))
        assert report.fuel.kind == EXACT
        assert report.fuel.bound == 2

    def test_host_call_cost_counted(self):
        report = verify_module(mod([
            Instruction(Op.HOST, "now_us"), Instruction(Op.RET),
        ]))
        assert report.fuel.kind == EXACT
        assert report.fuel.bound == 17  # HOST=16 + RET=1

    def test_counted_loop_is_bounded(self):
        source = """
        .memory 4096
        .func run_debuglet 0 1
        loop:
            local_get 0
            push 10
            ges
            jnz done
            local_get 0
            push 1
            add
            local_set 0
            jmp loop
        done:
            push 0
            ret
        .end
        """
        report = verify_module(assemble(source))
        assert report.ok
        assert report.fuel.kind == BOUNDED
        # 10 iterations of a 9-instruction body plus slack, never huge.
        assert 90 <= report.fuel.bound <= 200

    def test_nested_counted_loops_bounded(self):
        source = """
        .memory 4096
        .func run_debuglet 0 2
        outer:
            local_get 0
            push 3
            ges
            jnz done
            push 0
            local_set 1
        inner:
            local_get 1
            push 4
            ges
            jnz inner_done
            local_get 1
            push 1
            add
            local_set 1
            jmp inner
        inner_done:
            local_get 0
            push 1
            add
            local_set 0
            jmp outer
        done:
            push 0
            ret
        .end
        """
        report = verify_module(assemble(source))
        assert report.ok
        assert report.fuel.kind == BOUNDED
        assert report.fuel.bound < 2000

    def test_recv_drain_loop_needs_manifest(self):
        source = """
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
        module = assemble(source)
        # Without a manifest the packet budget is unknown: unbounded (warn).
        free = verify_module(module)
        assert free.ok
        assert free.fuel.kind == UNBOUNDED
        assert any(d.code == "V301" for d in free.warnings)
        # With a manifest the drain loop is bounded by max_packets_received.
        strict = verify_module(module, manifest(max_packets_received=5))
        assert strict.ok
        assert strict.fuel.kind == BOUNDED
        assert strict.fuel.bound <= (5 + 2) * 9 * 16  # generous ceiling

    def test_data_dependent_loop_unbounded(self):
        module = mod([
            Instruction(Op.HOST, "rand_u32"),
            Instruction(Op.JNZ, 0),
            Instruction(Op.PUSH, 0),
            Instruction(Op.RET),
        ])
        free = verify_module(module)
        assert free.ok  # V301 is only a warning without a manifest
        assert free.fuel.kind == UNBOUNDED
        strict = verify_module(module, manifest())
        assert not strict.ok  # ...but an error against a fuel-limited manifest
        assert "V301" in codes(strict)

    def test_no_exit_loop_always_rejected(self):
        report = verify_module(mod([Instruction(Op.JMP, 0)]))
        assert not report.ok
        assert "V302" in codes(report)
        assert report.fuel.kind == UNBOUNDED

    def test_bound_above_manifest_limit_rejected(self):
        code = [Instruction(Op.PUSH, 0)] * 50 + [Instruction(Op.RET)]
        report = verify_module(mod(code), manifest(max_instructions=10))
        assert not report.ok
        assert "V300" in codes(report)

    def test_call_cost_folds_in_callee_bound(self):
        helper = Function("helper", 0, 0, [
            Instruction(Op.PUSH, 1), Instruction(Op.PUSH, 2),
            Instruction(Op.ADD), Instruction(Op.RET),
        ])
        report = verify_module(mod(
            [Instruction(Op.CALL, "helper"), Instruction(Op.RET)],
            extra={"helper": helper},
        ))
        assert report.fuel.kind == EXACT
        # CALL=4 + helper(4 instructions) + RET=1
        assert report.fuel.bound == 9


class TestMemory:
    def test_provable_out_of_bounds_store(self):
        report = verify_module(mod([
            Instruction(Op.PUSH, 100_000),
            Instruction(Op.PUSH, 1),
            Instruction(Op.STORE64),
            Instruction(Op.PUSH, 0),
            Instruction(Op.RET),
        ], memory=4096))
        assert not report.ok
        assert "V400" in codes(report)

    def test_boundary_store_out_of_bounds(self):
        # Address memory-1 with an 8-byte store crosses the boundary.
        report = verify_module(mod([
            Instruction(Op.PUSH, 4095),
            Instruction(Op.PUSH, 1),
            Instruction(Op.STORE64),
            Instruction(Op.PUSH, 0),
            Instruction(Op.RET),
        ], memory=4096))
        assert not report.ok
        assert "V400" in codes(report)

    def test_in_bounds_store_accepted(self):
        report = verify_module(mod([
            Instruction(Op.PUSH, 4088),
            Instruction(Op.PUSH, 1),
            Instruction(Op.STORE64),
            Instruction(Op.PUSH, 0),
            Instruction(Op.RET),
        ], memory=4096))
        assert report.ok
        assert "V400" not in codes(report)

    def test_dynamic_address_is_info_not_error(self):
        report = verify_module(mod([
            Instruction(Op.LOCAL_GET, 0),
            Instruction(Op.LOAD64),
            Instruction(Op.RET),
        ], n_params=1, n_locals=0))
        assert report.ok
        assert "V401" in codes(report)

    def test_constant_division_by_zero_warned(self):
        report = verify_module(mod([
            Instruction(Op.PUSH, 1),
            Instruction(Op.PUSH, 0),
            Instruction(Op.DIVS),
            Instruction(Op.RET),
        ]))
        assert report.ok  # a warning: the VM traps it deterministically
        assert "V402" in codes(report)


NET_SEND_TCP = [
    Instruction(Op.PUSH, 6),  # TCP wire number
    Instruction(Op.PUSH, 0),
    Instruction(Op.PUSH, 7),
    Instruction(Op.PUSH, 0),
    Instruction(Op.PUSH, 8),
    Instruction(Op.HOST, "net_send"),
    Instruction(Op.RET),
]


class TestCapabilities:
    def test_undeclared_capability_rejected(self):
        report = verify_module(mod(list(NET_SEND_TCP)), manifest())
        assert not report.ok
        assert "V500" in codes(report)

    def test_declared_capability_accepted(self):
        report = verify_module(
            mod(list(NET_SEND_TCP)), manifest(capabilities=("tcp",)),
        )
        assert "V500" not in codes(report)
        assert report.capabilities == frozenset({"tcp"})

    def test_policy_refusal(self):
        policy = ExecutorPolicy(offered_capabilities=("udp",))
        report = verify_module(
            mod(list(NET_SEND_TCP)), manifest(capabilities=("tcp",)), policy,
        )
        assert not report.ok
        assert "V501" in codes(report)

    def test_unsupported_protocol_number(self):
        code = [Instruction(Op.PUSH, 99)] + list(NET_SEND_TCP[1:])
        report = verify_module(mod(code))
        assert not report.ok
        assert "V502" in codes(report)

    def test_dynamic_protocol_warns_and_defers_to_runtime(self):
        code = [Instruction(Op.LOCAL_GET, 0)] + list(NET_SEND_TCP[1:])
        report = verify_module(mod(code, n_params=1, n_locals=0), manifest())
        assert report.ok
        assert "V503" in codes(report)
        assert not report.capabilities_derivable

    def test_unused_declared_capability_is_info(self):
        report = verify_module(
            mod([Instruction(Op.PUSH, 0), Instruction(Op.RET)]),
            manifest(capabilities=("udp", "tcp")),
        )
        assert report.ok
        assert "V504" in codes(report)

    def test_infer_capabilities(self):
        stock = echo_client(Protocol.UDP, Address(20, 2), count=3, dst_port=7)
        caps, derivable = infer_capabilities(stock.module)
        assert caps == frozenset({"udp"})
        assert derivable

    def test_infer_capabilities_invalid_module(self):
        bad = Module(functions={}, memory_size=4096)
        assert infer_capabilities(bad) == (frozenset(), False)

    @pytest.mark.parametrize("code", [
        # pops an empty abstract stack (IndexError before the analysis
        # was staged behind the stack check)
        [Instruction(Op.DROP), Instruction(Op.PUSH, 0), Instruction(Op.RET)],
        [Instruction(Op.PUSH, 1), Instruction(Op.ADD), Instruction(Op.RET)],
        # does not underflow the abstract stack, but whatever would be
        # read off it as net_send's protocol is garbage
        [Instruction(Op.PUSH, 17), Instruction(Op.HOST, "net_send"),
         Instruction(Op.RET)],
    ], ids=["drop", "add", "short-net_send"])
    def test_infer_capabilities_proves_nothing_on_a_stack_invalid_module(
        self, code,
    ):
        module = mod(code, n_locals=0)
        assert "V200" in codes(verify_module(module))
        assert infer_capabilities(module) == (frozenset(), False)
        # "nothing provable" defers to verification, it does not reject
        manifest().validate_module(module)

    def test_infer_capabilities_proves_nothing_on_a_bad_local_index(self):
        module = mod([Instruction(Op.LOCAL_GET, 9), Instruction(Op.RET)])
        assert infer_capabilities(module) == (frozenset(), False)


STOCK_PROGRAMS = [
    pytest.param(
        lambda: echo_client(Protocol.UDP, Address(20, 2), count=10, dst_port=7),
        id="echo_client",
    ),
    pytest.param(lambda: echo_server(Protocol.UDP, max_echoes=10), id="echo_server"),
    pytest.param(
        lambda: oneway_sender(Protocol.UDP, Address(20, 2), count=10),
        id="oneway_sender",
    ),
    pytest.param(
        lambda: oneway_receiver(Protocol.UDP, max_probes=10), id="oneway_receiver",
    ),
]


class TestStockPrograms:
    """Every bundled program must pass its own manifest's verification."""

    @pytest.mark.parametrize("factory", STOCK_PROGRAMS)
    def test_verifies_clean_with_bounded_fuel(self, factory):
        stock = factory()
        report = verify_module(stock.module, stock.manifest)
        assert report.ok, report.render()
        assert report.fuel.is_bounded
        assert report.fuel.bound <= stock.manifest.max_instructions

    @pytest.mark.parametrize("factory", STOCK_PROGRAMS)
    def test_capabilities_exactly_declared(self, factory):
        stock = factory()
        report = verify_module(stock.module, stock.manifest)
        assert report.capabilities_derivable
        assert report.capabilities <= set(stock.manifest.capabilities)


class TestReport:
    def test_render_and_dict_roundtrip_fields(self):
        report = verify_module(mod([Instruction(Op.ADD), Instruction(Op.RET)]))
        text = report.render()
        assert "rejected" in text
        assert "[V200]" in text
        data = report.as_dict()
        assert data["ok"] is False
        assert any(d["code"] == "V200" for d in data["diagnostics"])

    def test_ok_report_shape(self):
        stock = echo_server(Protocol.UDP, max_echoes=3)
        data = verify_module(stock.module, stock.manifest).as_dict()
        assert data["ok"] is True
        assert data["fuel"]["kind"] in (EXACT, BOUNDED)
        assert "net_recv" in data["host_ops"]


class TestCFG:
    def test_reachability_and_exits(self):
        function = Function("f", 0, 0, [
            Instruction(Op.PUSH, 1),
            Instruction(Op.RET),
            Instruction(Op.PUSH, 2),
        ])
        cfg = build_cfg(function)
        assert cfg.reachable == {0, 1}
        assert 1 in cfg.exits

    def test_loop_forms_scc(self):
        function = Function("f", 0, 0, [
            Instruction(Op.PUSH, 1),
            Instruction(Op.JNZ, 0),
            Instruction(Op.RET),
        ])
        cfg = build_cfg(function)
        assert any({0, 1} <= scc for scc in cfg.cyclic_sccs)
