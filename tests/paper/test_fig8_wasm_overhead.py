"""Fig 8: the impact of running WA (the sandbox) on measurement accuracy.

Paper setup: four simultaneous one-day experiments London<->New York, one
packet per second — D2D, A2D, D2A, A2A — showing D2D ~300 us above A2A
with D2A and A2D in between, and near-identical loss. Here the four
combinations run at once over the same simulated link on the event
engine, with real bytecode Debuglets on the sandboxed sides, at a
constant 500 probes 200 ms apart: the sandbox overhead is per probe, so
the count sets only the noise, and 500 keeps the run under a second.
"""

from repro.core.application import DebugletApplication
from repro.core.executor import Executor
from repro.core.results import EchoMeasurement
from repro.netsim import (
    Link,
    Network,
    Protocol,
    ProtocolTreatment,
    Simulator,
    Topology,
    TreatmentProfile,
)
from repro.sandbox.programs import echo_client, echo_server
from repro.sandbox.programs_native import native_echo_client, native_echo_server

COUNT = 500
INTERVAL_US = 200_000
#: One-way London-NY propagation so that A2A lands near the paper's 74.81 ms.
ONE_WAY = 36.4e-3


def _build():
    sim = Simulator()
    topo = Topology()
    topo.make_as(1, seed=1, internal_delay=0.2e-3, internal_jitter=0.05e-3)
    topo.make_as(2, seed=2, internal_delay=0.2e-3, internal_jitter=0.05e-3)
    # ~1.5 % round-trip loss, matching the paper's 1.38-1.71 %.
    treatment = TreatmentProfile.uniform(ProtocolTreatment(base_drop=0.008))
    link = Link.symmetric(
        "lon-ny", base_delay=ONE_WAY, seed=31, jitter_std=0.4e-3,
        treatment=treatment,
    )
    topo.connect(1, 1, 2, 1, link)
    net = Network(topo, sim, seed=32)
    return sim, net


def _apps(sandboxed_client: bool, sandboxed_server: bool, port: int, server_addr):
    client_stock = echo_client(
        Protocol.UDP, server_addr, count=COUNT, interval_us=INTERVAL_US,
        dst_port=port,
    )
    server_stock = echo_server(
        Protocol.UDP, max_echoes=COUNT, idle_timeout_us=4_000_000
    )
    if sandboxed_client:
        client = DebugletApplication.from_stock("cli", client_stock)
    else:
        client = DebugletApplication(
            "cli-native", client_stock.manifest,
            native_factory=lambda: native_echo_client(
                Protocol.UDP, count=COUNT, interval_us=INTERVAL_US, dst_port=port
            ),
        )
    if sandboxed_server:
        server = DebugletApplication.from_stock(
            "srv", server_stock, listen_port=port
        )
    else:
        server = DebugletApplication(
            "srv-native", server_stock.manifest,
            native_factory=lambda: native_echo_server(
                Protocol.UDP, max_echoes=COUNT, idle_timeout_us=4_000_000
            ),
            listen_port=port,
        )
    return client, server


def _run_fig8():
    sim, net = _build()
    ex_london = Executor(net, 1, 1, seed=33)
    ex_newyork = Executor(net, 2, 1, seed=34)
    combos = {
        "D2D": (True, True),
        "A2D": (False, True),
        "D2A": (True, False),
        "A2A": (False, False),
    }
    records = {}
    # All four experiments run simultaneously, like the paper's.
    for index, (name, (sc, ss)) in enumerate(combos.items()):
        port = 8500 + index
        client_app, server_app = _apps(sc, ss, port, ex_newyork.data_address)
        ex_newyork.submit(
            server_app, start_at=0.5,
            on_complete=lambda r, name=name: records.__setitem__((name, "s"), r),
        )
        ex_london.submit(
            client_app, start_at=0.6,
            on_complete=lambda r, name=name: records.__setitem__((name, "c"), r),
        )
    sim.run_until_idle()
    return {
        name: EchoMeasurement.from_result(records[(name, "c")].result, probes_sent=COUNT)
        for name in combos
    }


def test_fig8_sandbox_overhead():
    measurements = _run_fig8()

    print("\n=== Fig 8: sandbox impact on measurement accuracy ===")
    print(f"    probes per combination: {COUNT} (paper: 86400)")
    for name, echo in measurements.items():
        print(
            f"  {name}: mean={echo.mean_rtt_ms():8.3f} ms "
            f"std={echo.std_rtt_ms():6.3f} loss={echo.loss_rate():.2%}"
        )
    overhead_us = (
        measurements["D2D"].mean_rtt_ms() - measurements["A2A"].mean_rtt_ms()
    ) * 1e3
    print(f"  D2D - A2A: {overhead_us:.0f} us (paper: ~310 us)")

    # The paper's ordering: A2A < A2D < D2A < D2D.
    means = {name: m.mean_rtt_ms() for name, m in measurements.items()}
    assert means["A2A"] < means["A2D"] < means["D2A"] < means["D2D"]
    # ... with a ~300 us D2D overhead, constant enough to offset.
    assert 200 < overhead_us < 400
    # Loss is small and indistinguishable across combinations
    # (paper: 1.38-1.71 %).
    losses = [m.loss_rate() for m in measurements.values()]
    assert all(loss < 0.05 for loss in losses)
    assert max(losses) - min(losses) < 0.02
