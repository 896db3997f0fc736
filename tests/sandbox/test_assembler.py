"""Assembler: parsing, labels, directives, errors."""

import pytest

from repro.sandbox.assembler import AssemblyError, assemble
from repro.sandbox.isa import Op


class TestDirectives:
    def test_memory_and_buffers(self):
        module = assemble(
            ".memory 8192\n"
            ".buffer send_buffer 0 1024\n"
            ".buffer recv_buffer 1024 2048\n"
            ".func run_debuglet 0 0\npush 0\nret\n.end"
        )
        assert module.memory_size == 8192
        assert module.buffers["send_buffer"].offset == 0
        assert module.buffers["recv_buffer"].size == 2048

    def test_globals(self):
        module = assemble(
            ".memory 4096\n.global g0 -5\n"
            ".func run_debuglet 0 0\nglobal_get g0\nret\n.end"
        )
        assert module.globals["g0"] == -5

    def test_hex_immediates(self):
        module = assemble(
            ".memory 0x1000\n.func run_debuglet 0 0\npush 0xff\nret\n.end"
        )
        assert module.memory_size == 4096
        assert module.functions["run_debuglet"].code[0].arg == 255

    def test_comments_ignored(self):
        module = assemble(
            "; leading comment\n.memory 4096\n"
            ".func run_debuglet 0 0 ; trailing\n  push 1 ; why not\n  ret\n.end"
        )
        assert len(module.functions["run_debuglet"].code) == 2


class TestLabels:
    def test_forward_and_backward_labels(self):
        module = assemble(
            ".memory 4096\n.func run_debuglet 0 1\n"
            "start:\n  local_get 0\n  jnz end\n  push 1\n  local_set 0\n"
            "  jmp start\nend:\n  push 7\n  ret\n.end"
        )
        code = module.functions["run_debuglet"].code
        jnz = next(i for i in code if i.op is Op.JNZ)
        assert code[jnz.arg].op is Op.PUSH and code[jnz.arg].arg == 7

    def test_undefined_label(self):
        with pytest.raises(AssemblyError, match="undefined label"):
            assemble(".memory 4096\n.func run_debuglet 0 0\njmp nowhere\nret\n.end")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError, match="duplicate label"):
            assemble(
                ".memory 4096\n.func run_debuglet 0 0\nx:\nx:\npush 0\nret\n.end"
            )


class TestErrors:
    def test_unknown_instruction(self):
        with pytest.raises(AssemblyError, match="unknown instruction"):
            assemble(".memory 4096\n.func run_debuglet 0 0\nfrobnicate\n.end")

    def test_instruction_outside_function(self):
        with pytest.raises(AssemblyError, match="outside a function"):
            assemble("push 1\n")

    def test_unterminated_function(self):
        with pytest.raises(AssemblyError, match="unterminated"):
            assemble(".func run_debuglet 0 0\npush 0\nret\n")

    def test_nested_function(self):
        with pytest.raises(AssemblyError, match="nested"):
            assemble(".func a 0 0\n.func b 0 0\n.end\n.end")

    def test_duplicate_function(self):
        with pytest.raises(AssemblyError, match="duplicate function"):
            assemble(
                ".func run_debuglet 0 0\nret\n.end\n.func run_debuglet 0 0\nret\n.end"
            )

    def test_bad_integer(self):
        with pytest.raises(AssemblyError, match="expected integer"):
            assemble(".memory lots\n")

    def test_arg_arity_checked(self):
        with pytest.raises(AssemblyError):
            assemble(".func run_debuglet 0 0\npush\nret\n.end")
        with pytest.raises(AssemblyError):
            assemble(".func run_debuglet 0 0\nadd 3\nret\n.end")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblyError) as exc_info:
            assemble("\n\n.memory bad\n")
        assert exc_info.value.line_no == 3


class TestModuleValidation:
    def test_missing_entry_point(self):
        with pytest.raises(Exception, match="entry point"):
            assemble(".memory 4096\n.func other 0 0\npush 0\nret\n.end")

    def test_buffer_exceeding_memory(self):
        with pytest.raises(Exception, match="exceeds memory"):
            assemble(
                ".memory 1024\n.buffer big 0 2048\n"
                ".func run_debuglet 0 0\npush 0\nret\n.end"
            )

    def test_call_to_unknown_function(self):
        with pytest.raises(Exception, match="unknown function"):
            assemble(".memory 4096\n.func run_debuglet 0 0\ncall ghost\nret\n.end")

    def test_unknown_global_rejected(self):
        with pytest.raises(Exception, match="unknown global"):
            assemble(
                ".memory 4096\n.func run_debuglet 0 0\nglobal_get ghost\nret\n.end"
            )


class TestEncoding:
    def test_code_hash_stable(self):
        src = ".memory 4096\n.func run_debuglet 0 0\npush 1\nret\n.end"
        assert assemble(src).code_hash() == assemble(src).code_hash()

    def test_code_hash_ignores_comments(self):
        a = assemble(".memory 4096\n.func run_debuglet 0 0\npush 1\nret\n.end")
        b = assemble(
            "; different comment\n.memory 4096\n"
            ".func run_debuglet 0 0\npush 1\nret\n.end"
        )
        assert a.code_hash() == b.code_hash()

    def test_code_hash_sensitive_to_instructions(self):
        a = assemble(".memory 4096\n.func run_debuglet 0 0\npush 1\nret\n.end")
        b = assemble(".memory 4096\n.func run_debuglet 0 0\npush 2\nret\n.end")
        assert a.code_hash() != b.code_hash()

    def test_size_bytes_positive(self):
        module = assemble(".memory 4096\n.func run_debuglet 0 0\npush 1\nret\n.end")
        assert module.size_bytes > 0

    def test_reassembling_hands_out_independent_copies(self):
        """A source is parsed once per process; each caller still gets a
        module of its own, and mutating it cannot reach the next caller."""
        src = (".memory 4096\n.buffer udp_recv_buffer 0 64\n.global g 3\n"
               ".func run_debuglet 0 0\npush 1\nret\n.end")
        first = assemble(src)
        pristine = first.encoded()
        first.functions["run_debuglet"].code.append(first.functions["run_debuglet"].code[0])
        first.functions["extra"] = first.functions["run_debuglet"]
        first.buffers.clear()
        first.globals["g"] = 4
        second = assemble(src)
        assert second is not first
        assert [i.op for i in second.functions["run_debuglet"].code] == [Op.PUSH, Op.RET]
        assert sorted(second.functions) == ["run_debuglet"]
        assert list(second.buffers) == ["udp_recv_buffer"]
        assert second.globals == {"g": 3}
        assert second.encoded() == pristine
        assert second.encoded() == second._encode()


class TestHardening:
    """Parse-time rejection of programs the verifier would refuse anyway."""

    def test_unknown_host_op_rejected_with_location(self):
        with pytest.raises(AssemblyError, match="unknown host operation") as info:
            assemble(
                ".memory 4096\n.func run_debuglet 0 0\n"
                "push 1\nhost frobnicate\nret\n.end"
            )
        assert info.value.line_no == 4
        assert "instruction 1" in str(info.value)

    def test_local_index_out_of_range_rejected(self):
        with pytest.raises(AssemblyError, match="local index 2 out of range"):
            assemble(
                ".memory 4096\n.func run_debuglet 1 1\nlocal_get 2\nret\n.end"
            )

    def test_negative_local_index_rejected(self):
        with pytest.raises(AssemblyError, match="local index -1"):
            assemble(
                ".memory 4096\n.func run_debuglet 0 1\nlocal_set -1\nret\n.end"
            )

    def test_local_index_counts_params_and_locals(self):
        module = assemble(
            ".memory 4096\n.func run_debuglet 2 1\nlocal_get 2\nret\n.end"
        )
        assert module.functions["run_debuglet"].code[0].arg == 2

    def test_label_past_end_rejected_with_line(self):
        with pytest.raises(AssemblyError, match="points past the end") as info:
            assemble(
                ".memory 4096\n.func run_debuglet 0 0\n"
                "push 0\nret\njmp after\nafter:\n.end"
            )
        assert info.value.line_no == 5

    def test_unknown_call_rejected_with_location(self):
        with pytest.raises(AssemblyError, match="unknown function 'helper'") as info:
            assemble(
                ".memory 4096\n.func run_debuglet 0 0\ncall helper\nret\n.end"
            )
        assert info.value.line_no == 3

    def test_forward_call_to_later_function_ok(self):
        module = assemble(
            ".memory 4096\n"
            ".func run_debuglet 0 0\ncall helper\nret\n.end\n"
            ".func helper 0 0\npush 1\nret\n.end"
        )
        assert "helper" in module.functions


class TestEnclosingFunctionContext:
    """Errors inside a ``.func`` body name the enclosing function."""

    def test_unknown_instruction_names_function(self):
        with pytest.raises(AssemblyError) as info:
            assemble(
                ".memory 4096\n.func my_helper 0 0\nfrobnicate\n.end"
            )
        assert info.value.function == "my_helper"
        assert "in function 'my_helper'" in str(info.value)
        assert "line 3" in str(info.value)
        assert info.value.line_no == 3

    def test_bad_local_index_names_function(self):
        with pytest.raises(AssemblyError) as info:
            assemble(
                ".memory 4096\n.func run_debuglet 0 1\nlocal_get 5\nret\n.end"
            )
        assert info.value.function == "run_debuglet"
        assert "in function 'run_debuglet'" in str(info.value)

    def test_undefined_label_names_function(self):
        with pytest.raises(AssemblyError) as info:
            assemble(
                ".memory 4096\n.func looper 0 0\njmp nowhere\nret\n.end"
            )
        assert info.value.function == "looper"
        assert info.value.line_no == 3

    def test_bad_immediate_inside_function_names_it(self):
        with pytest.raises(AssemblyError) as info:
            assemble(".memory 4096\n.func f 0 0\npush lots\nret\n.end")
        assert info.value.function == "f"

    def test_errors_outside_functions_carry_no_function(self):
        with pytest.raises(AssemblyError) as info:
            assemble(".memory lots\n")
        assert info.value.function is None
        assert "in function" not in str(info.value)

    def test_unknown_callee_error_names_caller(self):
        with pytest.raises(AssemblyError) as info:
            assemble(
                ".memory 4096\n.func run_debuglet 0 0\ncall helper\nret\n.end"
            )
        assert info.value.function == "run_debuglet"

    def test_detail_preserves_bare_message(self):
        with pytest.raises(AssemblyError) as info:
            assemble(".memory 4096\n.func f 0 0\nfrobnicate\n.end")
        assert info.value.detail == "unknown instruction 'frobnicate'"
