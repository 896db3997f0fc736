"""§I/§II ablation: today's tools vs Debuglet on a protocol-selective fault.

A link degrades *only UDP data traffic*. Ping (ICMP) reports a healthy
path; traceroute's hops go partly silent (disabled/rate-limited routers)
and its slow-path RTTs do not reflect data-plane latency; a Debuglet
measurement using UDP data packets over the pinned path sees the
degradation and localizes it to the right link.
"""

from repro.baselines import ping_sync, traceroute_sync
from repro.core.localization import FaultLocalizer
from repro.core.probing import SegmentProber
from repro.netsim import InterfaceId, Protocol
from repro.netsim.conduit import FaultOverlay
from repro.workloads.scenarios import deployed_chain


def _run_comparison():
    scenario, fleet = deployed_chain(4, seed=48, fleet_seed=49)
    # UDP-only degradation on the 2-3 link (e.g. fine-grained balancing
    # onto a broken member link that only UDP traffic is sprayed across).
    overlay = FaultOverlay(
        start=0.0, end=1e12, extra_delay=25e-3,
        protocols=frozenset({Protocol.UDP}),
    )
    a, b = InterfaceId(2, 2), InterfaceId(3, 1)
    scenario.topology.channel_between(a, b).add_overlay(overlay)
    scenario.topology.channel_between(b, a).add_overlay(overlay)
    # One router never answers TTL expiry, as §II describes.
    scenario.topology.autonomous_system(2).router(1).ttl_exceeded_enabled = False

    client = scenario.network.make_host(1, "user")
    server = scenario.network.make_host(
        4, "site", echo_protocols=(Protocol.UDP, Protocol.ICMP),
    )

    ping_trace = ping_sync(client, server.address, count=20, interval=0.05)
    traceroute_result = traceroute_sync(
        client, server.address, max_ttl=8, probe_gap=0.3
    )
    udp_prober = SegmentProber(fleet, probes=20, interval_us=5000)
    localizer = FaultLocalizer(udp_prober, protocol=Protocol.UDP)
    report = localizer.localize(
        scenario.registry.shortest(1, 4), strategy="binary"
    )
    return ping_trace, traceroute_result, report


def test_baseline_comparison():
    ping_trace, traceroute_result, report = _run_comparison()

    print("\n=== Baselines vs Debuglet on a UDP-only fault ===")
    print(
        f"  ping (ICMP):    mean={ping_trace.mean_rtt_ms():6.2f} ms "
        f"loss={ping_trace.loss_per_mille():.1f} per-mille -> path looks healthy"
    )
    print(
        f"  traceroute:     {traceroute_result.responding_hops} hops answered, "
        f"{traceroute_result.silent_hops} silent"
    )
    print(
        f"  Debuglet (UDP): suspects={[str(s) for s in report.suspects]} "
        f"in {report.measurements_used} measurements"
    )

    # Ping misses the fault entirely: ICMP is not degraded (the clean
    # 4-AS path is ~34 ms; the UDP fault would add 50 ms round trip).
    assert ping_trace.mean_rtt_ms() < 40.0
    assert ping_trace.loss_per_mille() == 0.0
    # Traceroute output has silent hops.
    assert traceroute_result.silent_hops > 0
    # Debuglet localizes the UDP-only fault to the right link.
    assert len(report.suspects) == 1
    suspect = report.suspects[0]
    assert suspect.link is not None
    assert {(i.asn, i.interface) for i in suspect.link} == {(2, 2), (3, 1)}
