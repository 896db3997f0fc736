"""§V-B ground-truth extraction: subtracting the constant sandbox offset."""


from repro.core.application import DebugletApplication
from repro.core.executor import HOST_CALL_OVERHEAD, Executor
from repro.core.results import EchoMeasurement
from repro.netsim import Link, Network, Protocol, Simulator, Topology
from repro.sandbox.programs import echo_client, echo_server
from repro.sandbox.programs_native import native_echo_client, native_echo_server

COUNT = 25


class TestOffsetCorrection:
    def test_corrected_d2d_matches_a2a(self):
        """Knowing the execution environment (5 x host_call_overhead),
        a verifier recovers the ground-truth RTT from a D2D measurement."""
        sim = Simulator()
        topo = Topology()
        topo.make_as(1, seed=1)
        topo.make_as(2, seed=2)
        topo.connect(1, 1, 2, 1, Link.symmetric("x", base_delay=10e-3, seed=3))
        net = Network(topo, sim, seed=4)
        ex_a = Executor(net, 1, 1, seed=5)
        ex_b = Executor(net, 2, 1, seed=6)

        records = {}
        for index, sandboxed in enumerate((True, False)):
            port = 9900 + index
            client_stock = echo_client(
                Protocol.UDP, ex_b.data_address, count=COUNT,
                interval_us=50_000, dst_port=port,
            )
            server_stock = echo_server(
                Protocol.UDP, max_echoes=COUNT, idle_timeout_us=2_000_000
            )
            if sandboxed:
                client_app = DebugletApplication.from_stock("c", client_stock)
                server_app = DebugletApplication.from_stock(
                    "s", server_stock, listen_port=port
                )
            else:
                client_app = DebugletApplication(
                    "cn", client_stock.manifest,
                    native_factory=lambda port=port: native_echo_client(
                        Protocol.UDP, count=COUNT, interval_us=50_000,
                        dst_port=port,
                    ),
                )
                server_app = DebugletApplication(
                    "sn", server_stock.manifest,
                    native_factory=lambda: native_echo_server(
                        Protocol.UDP, max_echoes=COUNT,
                        idle_timeout_us=2_000_000,
                    ),
                    listen_port=port,
                )
            ex_b.submit(server_app, start_at=0.5,
                        on_complete=lambda r, s=sandboxed: records.__setitem__(
                            (s, "srv"), r))
            ex_a.submit(client_app, start_at=0.6,
                        on_complete=lambda r, s=sandboxed: records.__setitem__(
                            (s, "cli"), r))
        sim.run_until_idle()

        d2d = EchoMeasurement.from_result(records[(True, "cli")].result,
                                          probes_sent=COUNT)
        a2a = EchoMeasurement.from_result(records[(False, "cli")].result,
                                          probes_sent=COUNT)
        overhead_us = 5 * HOST_CALL_OVERHEAD * 1e6
        corrected = d2d.offset_corrected(overhead_us)
        assert abs(corrected.mean_rtt_ms() - a2a.mean_rtt_ms()) < 0.05
        # Uncorrected, the gap is the full ~300 us.
        assert d2d.mean_rtt_ms() - a2a.mean_rtt_ms() > 0.2

    def test_correction_never_goes_negative(self):
        echo = EchoMeasurement(probes_sent=2, rtts_us={0: 100, 1: 50})
        corrected = echo.offset_corrected(80)
        assert corrected.rtts_us == {0: 20, 1: 0}
