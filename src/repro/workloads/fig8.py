"""Fig 8: the impact of running the sandbox on measurement accuracy (§V).

Paper setup: four simultaneous one-day experiments London<->New York, one
packet per second — D2D, A2D, D2A, A2A (Debuglet or native application on
the client and server side) — showing D2D ~300 us above A2A with D2A and
A2D in between, and near-identical loss. Here the four combinations run
at once over the same simulated link on the event engine, with real
bytecode Debuglets on the sandboxed sides, ``count`` probes 200 ms apart:
the sandbox overhead is per probe, so the count sets only the noise.
``repro fig8`` prints :func:`run_fig8` and
``tests/paper/test_fig8_wasm_overhead.py`` asserts on it.
"""

from __future__ import annotations

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
#: Combination -> (sandboxed client, sandboxed server).
COMBINATIONS = {
    "D2D": (True, True),
    "A2D": (False, True),
    "D2A": (True, False),
    "A2A": (False, False),
}


def build_fig8_world() -> tuple[Simulator, Network]:
    """London (AS1) and New York (AS2) over one lossy transatlantic link."""
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
    return sim, Network(topo, sim, seed=32)


def _apps(sandboxed_client: bool, sandboxed_server: bool, port: int,
          server_addr, count: int):
    client_stock = echo_client(
        Protocol.UDP, server_addr, count=count, interval_us=INTERVAL_US,
        dst_port=port,
    )
    # The servers keep the stock idle timeout (5 s): it outlasts two
    # consecutive lost probes, each a 2 s client timeout.
    server_stock = echo_server(Protocol.UDP, max_echoes=count)
    if sandboxed_client:
        client = DebugletApplication.from_stock("cli", client_stock)
    else:
        client = DebugletApplication(
            "cli-native", client_stock.manifest,
            native_factory=lambda: native_echo_client(
                Protocol.UDP, count=count, interval_us=INTERVAL_US, dst_port=port
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
                Protocol.UDP, max_echoes=count
            ),
            listen_port=port,
        )
    return client, server


def run_fig8(count: int = COUNT) -> dict[str, EchoMeasurement]:
    """The four combinations, run simultaneously like the paper's; the
    client-side measurement of each, keyed as :data:`COMBINATIONS`."""
    sim, net = build_fig8_world()
    ex_london = Executor(net, 1, 1, seed=33)
    ex_newyork = Executor(net, 2, 1, seed=34)
    records = {}
    for index, (name, (sc, ss)) in enumerate(COMBINATIONS.items()):
        port = 8500 + index
        client_app, server_app = _apps(
            sc, ss, port, ex_newyork.data_address, count
        )
        ex_newyork.submit(server_app, start_at=0.5)
        ex_london.submit(
            client_app, start_at=0.6,
            on_complete=lambda r, name=name: records.__setitem__(name, r),
        )
    sim.run_until_idle()
    return {
        name: EchoMeasurement.from_result(records[name].result, probes_sent=count)
        for name in COMBINATIONS
    }
