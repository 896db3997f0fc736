"""Fig 3: Bangalore - London RTT over 24 hours.

The paper: "UDP's RTT between Bangalore and London is distributed over a
30 ms range, almost randomly", while the other protocols are consistent
for stretches but shift several times a day. Checked on a day of one probe
per second.
"""

from repro.analysis import detect_clusters, spread_ms
from repro.netsim.packet import Protocol
from repro.workloads.wan import WanScenario

SEED = 7
DAY = 86_400


def run_day(seed: int = SEED):
    scenario = WanScenario.build(seed=seed, cities=["bangalore"])
    return scenario.run_protocol_study(probes_per_protocol=DAY, fast=True)["bangalore"]


def check_fig3(traces, *, seed: int = SEED) -> None:
    udp_rtts = traces[Protocol.UDP].rtts_ms()
    clusters = detect_clusters(udp_rtts, bandwidth_ms=0.3, min_weight=0.04)

    print(f"\n=== Fig 3: Bangalore - London RTT, 24 h at 1 probe/s (seed {seed}) ===")
    for protocol, trace in traces.items():
        print(
            f"  {protocol.name:<7} mean={trace.mean_rtt_ms():7.2f} ms "
            f"std={trace.std_rtt_ms():5.2f} "
            f"spread(p1-p99)={spread_ms(trace.rtts_ms()):5.1f} ms"
        )
    print(f"  UDP density modes: {len(clusters)}")

    udp_spread = spread_ms(udp_rtts)
    # UDP spread over roughly a 30 ms range...
    assert 20.0 < udp_spread < 40.0, udp_spread
    # ... wider than every other protocol's, and far wider than the
    # priority-queued ICMP / raw IP series.
    assert udp_spread > spread_ms(traces[Protocol.TCP].rtts_ms())
    for protocol in (Protocol.ICMP, Protocol.RAW_IP):
        assert udp_spread > 1.4 * spread_ms(traces[protocol].rtts_ms()), protocol
    # "Almost randomly": many routes, so no small set of crisp modes.
    assert len(clusters) >= 5


def test_fig3_bangalore_udp_spread():
    check_fig3(run_day())
