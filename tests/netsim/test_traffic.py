"""Probe trains and the multi-protocol prober."""

import pytest

from repro.common.errors import ConfigurationError
from repro.netsim import (
    FaultInjector,
    InterfaceId,
    MultiProtocolProber,
    OneWayProbeTrain,
    ProbeTrain,
    Protocol,
)


class TestProbeTrain:
    def test_all_probes_answered_on_clean_path(self, two_as_network):
        sim, _, _, client, server = two_as_network
        train = ProbeTrain(
            client, server.address, Protocol.UDP,
            count=10, interval=0.1, src_port=1000,
        )
        sim.run_until_idle()
        trace = train.finalize()
        assert trace.sent == 10
        assert trace.lost == 0
        assert 19e-3 < trace.mean_rtt_ms() * 1e-3 < 30e-3

    def test_losses_recorded(self, two_as_network):
        sim, topo, _, client, server = two_as_network
        injector = FaultInjector(topo)
        injector.link_blackhole(
            InterfaceId(1, 1), InterfaceId(2, 1), start=0.0, end=0.45
        )
        train = ProbeTrain(
            client, server.address, Protocol.UDP,
            count=10, interval=0.1, src_port=1000,
        )
        sim.run_until_idle()
        trace = train.finalize()
        assert trace.lost == 5  # probes at t=0 .. 0.4 blackholed
        assert trace.received == 5

    def test_requires_port_for_udp(self, two_as_network):
        _, _, _, client, server = two_as_network
        with pytest.raises(ConfigurationError):
            ProbeTrain(client, server.address, Protocol.UDP, count=1, src_port=0)

    def test_validation(self, two_as_network):
        _, _, _, client, server = two_as_network
        with pytest.raises(ConfigurationError):
            ProbeTrain(client, server.address, Protocol.ICMP, count=0)

    def test_icmp_train_uses_stack_echo(self, two_as_network):
        sim, _, _, client, server = two_as_network
        train = ProbeTrain(client, server.address, Protocol.ICMP, count=5, interval=0.1)
        sim.run_until_idle()
        assert train.finalize().received == 5


class TestMultiProtocolProber:
    def test_runs_all_four_protocols(self, two_as_network):
        sim, _, _, client, server = two_as_network
        prober = MultiProtocolProber(client, server.address, count=5, interval=0.1)
        sim.run_until_idle()
        traces = prober.finalize()
        assert set(traces) == {
            Protocol.UDP, Protocol.TCP, Protocol.ICMP, Protocol.RAW_IP,
        }
        for trace in traces.values():
            assert trace.received == 5

    def test_same_probe_size_across_protocols(self, two_as_network):
        sim, _, _, client, server = two_as_network
        prober = MultiProtocolProber(client, server.address, count=2, size=100)
        for train in prober.trains.values():
            assert train.size == 100


class TestOneWayProbeTrain:
    def test_one_way_delay_is_half_of_rtt(self, two_as_network):
        sim, _, _, client, server = two_as_network
        train = OneWayProbeTrain(
            client, server, Protocol.UDP, count=8, interval=0.1
        )
        sim.run_until_idle()
        trace = train.finalize()
        assert trace.received == 8
        one_way = trace.mean_rtt_ms()  # stored in the rtt slot
        assert 10.0 < one_way < 14.0  # one 10 ms crossing + internals

    def test_unidirectional_fault_isolated(self, two_as_network):
        sim, topo, _, client, server = two_as_network
        injector = FaultInjector(topo)
        # Fault only on the reverse (server->client) direction.
        injector.link_delay(
            InterfaceId(2, 1), InterfaceId(1, 1),
            extra_delay=50e-3, start=0.0, end=1e9, directions="forward",
        )
        forward = OneWayProbeTrain(
            client, server, Protocol.UDP, count=5, interval=0.1, dst_port=42001,
            src_port=41001,
        )
        backward = OneWayProbeTrain(
            server, client, Protocol.UDP, count=5, interval=0.1, dst_port=42002,
            src_port=41002,
        )
        sim.run_until_idle()
        fwd_delay = forward.finalize().mean_rtt_ms()
        bwd_delay = backward.finalize().mean_rtt_ms()
        assert bwd_delay > fwd_delay + 40.0

    @pytest.mark.parametrize("protocol", [Protocol.UDP, Protocol.ICMP])
    def test_finalize_releases_both_sockets(self, two_as_network, protocol):
        sim, _, _, client, server = two_as_network
        for _ in range(2):  # back to back, default ports
            train = OneWayProbeTrain(client, server, protocol, count=3, interval=0.1)
            sim.run_until_idle()
            assert train.finalize().received == 3

    @pytest.mark.parametrize(
        "schedule", [dict(count=0), dict(count=3, interval=-1.0), dict(count=3, interval=0.0)]
    )
    def test_validation(self, two_as_network, schedule):
        _, _, _, client, server = two_as_network
        with pytest.raises(ConfigurationError):
            OneWayProbeTrain(client, server, Protocol.UDP, **schedule)
        # A refused train binds nothing.
        OneWayProbeTrain(client, server, Protocol.UDP, count=1).finalize()
