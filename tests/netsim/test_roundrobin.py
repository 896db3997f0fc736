"""The paper's exact round-robin §II client."""

import pytest

from repro.common.errors import ConfigurationError
from repro.netsim import Protocol, RoundRobinProber
from tests.netsim.probe_records import probe_records


class TestRoundRobinProber:
    def test_one_probe_per_slot(self, two_as_network):
        sim, _, net, client, server = two_as_network
        prober = RoundRobinProber(client, server.address, rounds=5, interval=1.0)
        sim.run_until_idle()
        traces = prober.finalize()
        assert all(trace.sent == 5 for trace in traces.values())
        assert all(trace.received == 5 for trace in traces.values())

    def test_protocols_never_overlap_in_time(self, two_as_network):
        sim, _, net, client, server = two_as_network
        prober = RoundRobinProber(client, server.address, rounds=3, interval=1.0)
        sim.run_until_idle()
        traces = prober.finalize()
        send_times = []
        for trace in traces.values():
            send_times.extend(r.send_time for r in probe_records(trace))
        send_times.sort()
        # One probe per second total: consecutive sends 1 s apart.
        gaps = [b - a for a, b in zip(send_times, send_times[1:])]
        assert all(gap == pytest.approx(1.0) for gap in gaps)

    def test_full_rotation_period(self, two_as_network):
        sim, _, net, client, server = two_as_network
        prober = RoundRobinProber(client, server.address, rounds=2, interval=1.0)
        sim.run_until_idle()
        udp = prober.trains[Protocol.UDP].trace
        times = [r.send_time for r in probe_records(udp)]
        assert times[1] - times[0] == pytest.approx(4.0)  # 4-protocol period

    def test_rounds_validation(self, two_as_network):
        _, _, _, client, server = two_as_network
        with pytest.raises(ConfigurationError):
            RoundRobinProber(client, server.address, rounds=0)
