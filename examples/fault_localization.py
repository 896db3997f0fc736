"""Fault localization on a ten-AS path (the §VI-D scenario).

Injects a delay fault on the last inter-domain link of a 10-AS chain —
the paper's worked example — and compares the three measurement-selection
strategies, plus what today's tools (ping, traceroute) would have told
you.

Run:  python examples/fault_localization.py
"""

from repro.baselines import ping_sync, traceroute_sync
from repro.core import FaultLocalizer, SegmentProber
from repro.netsim import FaultInjector, InterfaceId, Protocol
from repro.workloads import deployed_chain

N_ASES = 10


def main() -> None:
    scenario, fleet = deployed_chain(N_ASES, seed=42, fleet_seed=43)
    print(f"deployed {len(fleet)} executors (one per border router)")

    injector = FaultInjector(scenario.topology)
    fault = injector.link_delay(
        InterfaceId(N_ASES - 1, 2), InterfaceId(N_ASES, 1),
        extra_delay=20e-3, start=0.0, end=1e12,
    )
    print(f"injected ground truth: +20 ms on {fault.location}\n")

    # What the old tools see.
    client = scenario.network.make_host(1, "user")
    server = scenario.network.make_host(
        N_ASES, "site", echo_protocols=(Protocol.ICMP, Protocol.UDP)
    )
    ping = ping_sync(client, server.address, count=10, interval=0.2)
    print(
        f"ping:        RTT {ping.mean_rtt_ms():.1f} ms end-to-end — something "
        "is slow, but where?"
    )
    tracer = traceroute_sync(client, server.address, max_ttl=20, probe_gap=0.4)
    print(
        f"traceroute:  {tracer.responding_hops} hops answered "
        f"({tracer.silent_hops} silent), slow-path RTTs unusable for timing\n"
    )

    # Debuglet: three strategies over executor vantage points.
    prober = SegmentProber(fleet, probes=20, interval_us=5000)
    localizer = FaultLocalizer(prober)
    path = scenario.registry.shortest(1, N_ASES)
    print(f"{'strategy':<12} {'measurements':>12} {'sim time':>9}  verdict")
    for strategy in ("binary", "linear", "exhaustive"):
        report = localizer.localize(path, strategy=strategy)
        verdict = ", ".join(str(s) for s in report.suspects) or "no fault"
        hit = "correct" if report.found(fault.location) else "WRONG"
        print(
            f"{strategy:<12} {report.measurements_used:>12} "
            f"{report.time_to_locate:>8.1f}s  {verdict}  [{hit}]"
        )


if __name__ == "__main__":
    main()
