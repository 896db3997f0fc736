"""Host-op table sanity."""

import pytest

from repro.common.errors import SandboxError
from repro.netsim import Protocol
from repro.sandbox.hostops import HOST_OPS, protocol_from_number


class TestHostOps:
    def test_every_op_has_sane_signature(self):
        for name, row in HOST_OPS.items():
            assert 0 <= row.arity <= 8, name

    def test_arity_lookup(self):
        assert HOST_OPS["net_send"].arity == 5
        assert HOST_OPS["now_us"].arity == 0
        assert "no_such_op" not in HOST_OPS

    def test_blocking_ops_subset(self):
        blocking = {name for name, row in HOST_OPS.items() if row.blocking}
        assert blocking == {"net_recv", "sleep_until_us"}

    def test_protocol_mapping(self):
        assert protocol_from_number(17) is Protocol.UDP
        assert protocol_from_number(201) is Protocol.RAW_IP
        with pytest.raises(SandboxError):
            protocol_from_number(99)
