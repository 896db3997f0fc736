"""Poisson background traffic and host-op table sanity."""

import pytest

from repro.common.errors import SandboxError
from repro.netsim import PoissonTraffic, Protocol
from repro.sandbox.hostops import HOST_OPS, protocol_from_number


class TestPoissonTraffic:
    def test_generates_roughly_rate_times_duration(self, two_as_network):
        sim, _, net, client, server = two_as_network
        sock = client.open_udp(2222)
        traffic = PoissonTraffic(
            client_socket=sock, server=server.address, rate=50.0,
            duration=10.0, seed=3,
        )
        traffic.launch()
        sim.run_until_idle()
        assert 350 < traffic.sent < 650  # ~500 expected

    def test_deterministic_per_seed(self, two_as_network):
        sim, _, net, client, server = two_as_network
        first = PoissonTraffic(
            client_socket=client.open_udp(2223), server=server.address,
            rate=20.0, duration=5.0, seed=9,
        )
        second = PoissonTraffic(
            client_socket=client.open_udp(2224), server=server.address,
            rate=20.0, duration=5.0, seed=9,
        )
        first.launch()
        second.launch()
        sim.run_until_idle()
        # Same seed and host: identical inter-arrival draws? The RNG is
        # derived from the host name, shared here, so both see the same
        # schedule length.
        assert first.sent == second.sent


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
