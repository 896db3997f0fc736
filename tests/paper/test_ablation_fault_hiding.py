"""§VI-E ablation: an ISP that prioritizes executor traffic, and its
detection by cross-validation.

The cheating AS gives packets to/from known executor addresses priority
treatment on its congested link. Debuglet-to-Debuglet measurements then
look healthy while real end-host traffic still suffers — exactly the gap
the cross-validator flags.
"""

import numpy as np

from repro.core.antigaming import CrossValidator, enable_prioritization
from repro.core.executor import executor_data_address
from repro.core.probing import ExecutorFleet, SegmentProber
from repro.netsim import CongestionConfig, CongestionProcess, InterfaceId, Protocol
from repro.netsim.traffic import ProbeTrain
from repro.workloads.scenarios import build_chain


def _scenario(cheating: bool):
    scenario = build_chain(2, seed=46)
    config = CongestionConfig(
        base_utilization=0.85, diurnal_amplitude=0.0, burst_rate=0.0,
        queue_service_time=2e-3, drop_threshold=0.99,
    )
    channels = [
        scenario.topology.channel_between(InterfaceId(1, 2), InterfaceId(2, 1)),
        scenario.topology.channel_between(InterfaceId(2, 1), InterfaceId(1, 2)),
    ]
    for index, channel in enumerate(channels):
        channel.congestion = CongestionProcess(config, seed=50 + index)
    fleet = ExecutorFleet(scenario.network, seed=47)
    fleet.deploy_full()
    if cheating:
        enable_prioritization(
            channels,
            [executor_data_address(1, 2), executor_data_address(2, 1)],
        )
    return scenario, fleet


def _measure(scenario, fleet):
    prober = SegmentProber(fleet, probes=80, interval_us=5000)
    path = scenario.registry.shortest(1, 2)
    d2d = prober.measure_sync((1, 2), (2, 1), path)
    client = scenario.network.make_host(1, "user")
    server = scenario.network.make_host(2, "site", echo_protocols=(Protocol.UDP,))
    train = ProbeTrain(client, server.address, Protocol.UDP,
                       count=80, interval=0.01, src_port=3999)
    scenario.simulator.run_until_idle()
    endhost = train.finalize()
    return d2d, endhost


def _validate(d2d, endhost):
    validator = CrossValidator(rtt_tolerance_ms=5.0)
    return validator.compare(
        executor_rtts_ms=np.array(sorted(d2d.echo.rtts_us.values())) / 1e3,
        executor_loss=d2d.loss_rate(),
        endhost_rtts_ms=endhost.rtts_ms(),
        endhost_loss=endhost.loss_rate(),
    )


def _run_study():
    results = {}
    for label, cheating in (("honest", False), ("cheating", True)):
        scenario, fleet = _scenario(cheating)
        d2d, endhost = _measure(scenario, fleet)
        results[label] = _validate(d2d, endhost)
    return results


def test_fault_hiding():
    results = _run_study()

    print("\n=== §VI-E: executor-traffic prioritization and its detection ===")
    for label, report in results.items():
        print(
            f"  {label:<9} D2D={report.executor_mean_rtt_ms:7.2f} ms  "
            f"end-host={report.endhost_mean_rtt_ms:7.2f} ms  "
            f"gap={report.rtt_gap_ms:+6.2f} ms  "
            f"suspected={report.gaming_suspected}"
        )

    assert not results["honest"].gaming_suspected
    assert results["cheating"].gaming_suspected
    # The cheater's hidden congestion is substantial.
    assert results["cheating"].rtt_gap_ms > 5.0
