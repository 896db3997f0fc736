"""§V-B: WA execution-environment setup time.

The paper observes "an almost constant setup time of around 10 ms across
all executions". The test instantiates Debuglet bytecodes of very
different sizes and measures submission-to-first-instruction latency.
"""

from repro.core.application import DebugletApplication
from repro.core.executor import Executor, executor_data_address
from repro.netsim import Link, Network, Protocol, Simulator, Topology
from repro.sandbox.programs import echo_client, echo_server, oneway_receiver


def _run_setup_study():
    sim = Simulator()
    topo = Topology()
    topo.make_as(1, seed=1)
    topo.make_as(2, seed=2)
    topo.connect(1, 1, 2, 1, Link.symmetric("x", base_delay=1e-3, seed=3))
    net = Network(topo, sim, seed=4)
    executor = Executor(net, 1, 1, seed=5)

    applications = [
        DebugletApplication.from_stock(
            "tiny", echo_server(Protocol.UDP, max_echoes=1, idle_timeout_us=1000),
            listen_port=9001,
        ),
        DebugletApplication.from_stock(
            "small",
            echo_client(
                Protocol.UDP, executor_data_address(2, 1), count=5,
                interval_us=1000, timeout_us=100, drain_us=100,
            ),
        ),
        DebugletApplication.from_stock(
            "large",
            echo_client(
                Protocol.UDP, executor_data_address(2, 1), count=4000,
                interval_us=100, timeout_us=100, drain_us=100,
            ),
        ),
        DebugletApplication.from_stock(
            "receiver",
            oneway_receiver(Protocol.UDP, max_probes=1, idle_timeout_us=1000),
            listen_port=9002,
        ),
    ]
    setups = {}
    t = 1.0
    for app in applications:
        record = executor.submit(app, start_at=t)
        setups[app.name] = (app.size_bytes, record, t)
        t += 20.0
    sim.run_until_idle()
    return {
        name: (size, record.started_at - submitted)
        for name, (size, record, submitted) in setups.items()
    }


def test_setup_time():
    setups = _run_setup_study()

    print("\n=== §V-B: sandbox setup time vs bytecode size ===")
    for name, (size, setup) in setups.items():
        print(f"  {name:<9} {size:6d} B  setup = {setup * 1e3:6.2f} ms")

    values = [setup for _, setup in setups.values()]
    # ~10 ms, nearly constant across bytecode sizes.
    assert all(8e-3 < v < 13e-3 for v in values), values
    assert max(values) - min(values) < 2e-3
