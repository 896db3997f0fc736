"""§V-B: delay-to-measurement.

The paper decomposes delay-to-measurement into (1) blockchain operation
latency (two critical-path transactions, sub-second finality), (2) wait
until the scheduled slot, and (3) sandbox setup (~10 ms), concluding the
stack allows *sub-second* reaction to a fault. The test measures each
component over the real stack.
"""

from repro.core.application import DebugletApplication
from repro.core.executor import executor_data_address
from repro.netsim.packet import Protocol
from repro.sandbox.programs import echo_client, echo_server
from repro.workloads.scenarios import MarketplaceTestbed

COUNT = 5


def _run_delay_study():
    testbed = MarketplaceTestbed.build(2, seed=41, finality_latency=0.4)
    path = testbed.chain.registry.shortest(1, 2)
    server_app = DebugletApplication.from_stock(
        "srv",
        echo_server(Protocol.UDP, max_echoes=COUNT, idle_timeout_us=2_000_000),
        listen_port=8600, path=path.reversed().as_list(),
    )
    client_app = DebugletApplication.from_stock(
        "cli",
        echo_client(Protocol.UDP, executor_data_address(2, 1),
                    count=COUNT, interval_us=20_000, dst_port=8600),
        path=path.as_list(),
    )
    request_time = testbed.chain.simulator.now
    session = testbed.initiator.request_measurement(
        client_app, server_app, (1, 2), (2, 1), duration=20.0
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)

    client_agent = testbed.agents[(1, 2)]
    record = client_agent.executor.executions[-1]
    return {
        "finality_latency": testbed.ledger.finality_latency,
        "chain_ops": 2 * testbed.ledger.finality_latency,
        "slot_wait": session.window_start - request_time,
        "first_instruction": record.started_at - request_time,
        "setup": record.started_at - session.window_start,
    }


def test_delay_to_measurement():
    delays = _run_delay_study()

    print("\n=== §V-B: delay-to-measurement breakdown ===")
    print(f"  (1) blockchain ops (2 tx x {delays['finality_latency']:.1f} s finality): "
          f"{delays['chain_ops']:.2f} s")
    print(f"  (2) wait until purchased slot:            {delays['slot_wait']:.2f} s")
    print(f"  (3) sandbox setup:                        {delays['setup'] * 1e3:.1f} ms")
    print(f"  request -> first measurement instruction: "
          f"{delays['first_instruction']:.3f} s")

    # The headline claim: sub-second reaction to an experienced fault.
    assert delays["first_instruction"] < 1.0
    assert 0.005 < delays["setup"] < 0.02
