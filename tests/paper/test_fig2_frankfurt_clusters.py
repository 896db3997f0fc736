"""Fig 2: Frankfurt - London RTT over 24 hours.

Two features of the paper's figure are checked on a day of one probe per
second: (a) UDP RTTs form four clearly visible clusters — four parallel
routes sprayed per packet — and (b) for several hours UDP and raw IP show
a correlated increase that ICMP and TCP do not.
"""

import numpy as np

from repro.analysis import detect_clusters
from repro.netsim.packet import Protocol
from repro.workloads.wan import WanScenario

SEED = 7
DAY = 86_400
HOUR = 3600.0


def run_day(seed: int = SEED):
    scenario = WanScenario.build(seed=seed, cities=["frankfurt"])
    return scenario.run_protocol_study(probes_per_protocol=DAY, fast=True)["frankfurt"]


def _mean_in(trace, t0, t1):
    times, rtts = trace.time_series()
    return float(np.mean(rtts[(times >= t0) & (times < t1)]))


def check_fig2(traces, *, seed: int = SEED) -> None:
    # Cluster on the hours outside the scripted route shift: the four
    # parallel-route modes are the persistent structure (the shift slides
    # them up for a few hours, which would register as extra modes).
    times, rtts = traces[Protocol.UDP].time_series()
    quiet = rtts[(times < 8 * HOUR) | (times >= 14 * HOUR)]
    clusters = detect_clusters(quiet, bandwidth_ms=0.3, min_weight=0.05)

    print(f"\n=== Fig 2: Frankfurt - London RTT, 24 h at 1 probe/s (seed {seed}) ===")
    for protocol, trace in traces.items():
        print(
            f"  {protocol.name:<7} mean={trace.mean_rtt_ms():6.2f} ms "
            f"std={trace.std_rtt_ms():5.2f}"
        )
    print(
        "  UDP clusters:",
        [f"{c.center_ms:.2f} ms ({c.weight:.0%})" for c in clusters],
    )

    # (a) Four clearly visible UDP clusters.
    assert len(clusters) == 4, [c.center_ms for c in clusters]

    # (b) The scripted 8h-14h shift hits UDP and raw IP, not ICMP/TCP.
    shift_window = (9 * HOUR, 13 * HOUR)
    quiet_window = (1 * HOUR, 7 * HOUR)
    for protocol, expected_shift in (
        (Protocol.UDP, True),
        (Protocol.RAW_IP, True),
        (Protocol.ICMP, False),
        (Protocol.TCP, False),
    ):
        delta = _mean_in(traces[protocol], *shift_window) - _mean_in(
            traces[protocol], *quiet_window
        )
        print(f"  {protocol.name:<7} shift-window delta: {delta:+.2f} ms")
        if expected_shift:
            assert delta > 1.0, protocol
        else:
            assert abs(delta) < 1.0, protocol


def test_fig2_frankfurt_clusters_and_shift():
    check_fig2(run_day())
