"""Drift guards: one host-op table, and nothing beside it.

:data:`repro.sandbox.hostops.HOST_OPS` is the only declaration a host op
has. The VM, the verifier, ``VMProgram``, the executor's handlers, the
audit's result encoding and the fleet's allowlists are all read or built
from it, so what is left to guard is that the rows are well formed, that
every row has a handler, and that no module outside the table grows its
own list of op names again.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.sandbox import hostops
from repro.sandbox.hostops import HOST_OPS, net_ops


class TestTableConsistency:
    def test_rows_are_keyed_by_their_names(self):
        for name, row in HOST_OPS.items():
            assert row.name == name

    def test_result_ranges_well_formed(self):
        i64_min, i64_max = -(1 << 63), (1 << 63) - 1
        for name, row in HOST_OPS.items():
            lo, hi = row.result_range
            assert i64_min <= lo <= hi <= i64_max, name

    def test_result_taints_are_known_kinds(self):
        from repro.sandbox.manifest import KNOWN_EMIT_SOURCES

        for name, row in HOST_OPS.items():
            assert row.result_taint in KNOWN_EMIT_SOURCES + ("const",), name

    def test_net_ops_lead_with_proto_role(self):
        for name in net_ops():
            assert HOST_OPS[name].arg_roles[0] == "proto"
        assert set(net_ops()) == {"net_send", "net_recv", "net_reply"}

    def test_payload_directions_name_the_roles_they_read(self):
        for name, row in HOST_OPS.items():
            if row.payload_from == "send_buffer":
                assert row.arg_roles[0] == "proto" and row.arg_roles[-1] == "size"
            elif row.payload_from == "memory":
                assert row.arg_roles == ("offset", "length"), name
            else:
                assert row.payload_from is None, name
            if row.writes_recv_buffer:
                assert row.arg_roles[0] == "proto" and row.blocking, name

    def test_only_network_ops_transmit(self):
        for name, row in HOST_OPS.items():
            if row.transmits:
                assert name in net_ops()

    def test_recv_header_covers_documented_fields(self):
        # 4 x i64 header fields documented in the module docstring
        assert hostops.RECV_HEADER_SIZE == 32


class TestVerifierUsesTheTables:
    def test_absint_net_ops_match_hostops(self):
        from repro.sandbox.verifier import absint

        assert absint._NET_OPS == net_ops()

    def test_verifier_net_ops_match_hostops(self):
        from repro.sandbox.verifier import verifier

        assert verifier._NET_OPS == net_ops()

    def test_capability_inference_keys_off_proto_role(self):
        # every op capability inference would inspect is a net op
        from repro.sandbox.assembler import assemble
        from repro.sandbox.verifier import infer_capabilities

        source = """
.memory 4096
.buffer udp_send_buffer 0 64

.func run_debuglet 0 0
    push 17
    push 0
    push 9
    push 0
    push 8
    host net_send
    drop
    push 0
    ret
.end
"""
        capabilities, derivable = infer_capabilities(assemble(source))
        assert derivable and capabilities == frozenset({"udp"})


class TestExecutorDispatchMatches:
    def test_executor_handles_every_table_op(self):
        """The executor's dispatch is built from the rows, one method each."""
        from repro.core import executor

        assert set(executor._HOST_HANDLERS) == set(HOST_OPS)
        for name, handler in executor._HOST_HANDLERS.items():
            assert handler is getattr(executor.Executor, f"_op_{name}")

    def test_vm_charges_host_fuel_for_all_ops(self):
        from repro.sandbox.isa import FUEL_COST, Op

        assert FUEL_COST[Op.HOST] >= 1


#: Modules that used to keep their own copy of the op names.
_TABLE_READERS = (
    "core/executor.py",
    "core/audit.py",
    "core/fleetmgr.py",
    "sandbox/program.py",
)


@pytest.mark.parametrize("module", _TABLE_READERS)
def test_no_host_op_name_is_spelled_outside_the_table(module):
    """A string literal naming a host op means a second declaration."""
    source = (Path(repro.__file__).parent / module).read_text()
    spelled = sorted(
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value in HOST_OPS
    )
    assert spelled == []
