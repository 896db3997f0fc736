"""SLA enforcement with verifiable measurements (§VI-B use case).

A customer suspects its ISP (AS2) violates a latency SLA. The customer
buys Debuglet measurements bracketing the ISP, publishes them on-chain,
and a third party (e.g. an arbiter) verifies the results without trusting
either side. A second scenario shows a *cheating* ISP that prioritizes
executor traffic being caught by cross-validation (§VI-E).

Run:  python examples/verifiable_sla.py
"""

import numpy as np

from repro.core import (
    ChainVerifier,
    CrossValidator,
    EchoMeasurement,
    enable_prioritization,
)
from repro.core.executor import executor_data_address
from repro.netsim import (
    CongestionConfig,
    CongestionProcess,
    FaultInjector,
    InterfaceId,
    Protocol,
)
from repro.netsim.traffic import ProbeTrain
from repro.workloads import MarketplaceTestbed

PROBES = 25
SLA_RTT_MS = 15.0  # what AS2 promised for the bracketed segment


def measure_segment(testbed, client_vantage, server_vantage, port):
    session = testbed.request_echo(
        client_vantage, server_vantage, count=PROBES, port=port
    )
    testbed.initiator.run_until_done(session, testbed.chain.simulator)
    echo = EchoMeasurement.from_result(
        session.client_outcome.result, probes_sent=PROBES
    )
    return session, echo


def main() -> None:
    testbed = MarketplaceTestbed.build(n_ases=3, seed=77)
    # AS2 is congested inside: it violates its SLA.
    injector = FaultInjector(testbed.chain.topology)
    injector.as_internal_delay(2, extra_delay=12e-3, start=0.0, end=1e12)

    session, echo = measure_segment(testbed, (1, 2), (3, 1), port=7851)
    print(
        f"bracketing measurement across AS2: {echo.mean_rtt_ms():.2f} ms "
        f"(SLA: {SLA_RTT_MS:.0f} ms) -> "
        + ("VIOLATION" if echo.mean_rtt_ms() > SLA_RTT_MS else "ok")
    )

    # The arbiter verifies the published evidence independently.
    verifier = ChainVerifier(testbed.ledger, testbed.market)
    verified = verifier.verify_result(session.client_application)
    replay = EchoMeasurement.from_result(verified.result, probes_sent=PROBES)
    print(
        f"arbiter re-derives {replay.mean_rtt_ms():.2f} ms from the on-chain, "
        f"executor-certified result (vantage {verified.vantage}): evidence holds"
    )

    # --- Scenario 2: a cheating ISP tries to hide the congestion (§VI-E).
    print("\ncheating scenario: AS2 prioritizes executor traffic")
    channels = [
        testbed.chain.topology.channel_between(InterfaceId(1, 2), InterfaceId(2, 1)),
        testbed.chain.topology.channel_between(InterfaceId(2, 1), InterfaceId(1, 2)),
    ]
    config = CongestionConfig(
        base_utilization=0.85, diurnal_amplitude=0.0, burst_rate=0.0,
        queue_service_time=2e-3, drop_threshold=0.99,
    )
    for index, channel in enumerate(channels):
        channel.congestion = CongestionProcess(config, seed=80 + index)
    enable_prioritization(
        channels, [executor_data_address(1, 2), executor_data_address(2, 1)]
    )

    _, gamed_echo = measure_segment(testbed, (1, 2), (2, 1), port=7852)
    user = testbed.chain.network.make_host(1, "user")
    site = testbed.chain.network.make_host(2, "site", echo_protocols=(Protocol.UDP,))
    train = ProbeTrain(user, site.address, Protocol.UDP,
                       count=60, interval=0.01, src_port=3998)
    testbed.chain.simulator.run_until_idle()
    endhost = train.finalize()

    report = CrossValidator(rtt_tolerance_ms=5.0).compare(
        executor_rtts_ms=np.array(sorted(gamed_echo.rtts_us.values())) / 1e3,
        executor_loss=gamed_echo.loss_rate(),
        endhost_rtts_ms=endhost.rtts_ms(),
        endhost_loss=endhost.loss_rate(),
    )
    print(
        f"executor-measured {report.executor_mean_rtt_ms:.2f} ms vs end-host "
        f"{report.endhost_mean_rtt_ms:.2f} ms -> gaming suspected: "
        f"{report.gaming_suspected} ({'; '.join(report.reasons)})"
    )


if __name__ == "__main__":
    main()
