"""Table I: RTT and drop rate per protocol, London <-> six cities.

Paper setup: 86 400 probes per (city, protocol), one per second for a day,
identical layer-3 lengths. Here: scaled probe counts by default
(``DEBUGLET_FULL=1`` for the original scale). The harness prints the same
rows the paper tabulates — mean/std RTT in ms per protocol, loss in ‰ —
and asserts the qualitative structure the paper reports.

Both simulation paths run: the event-driven reference and the vectorized
fast path (``fast=True``), which must reproduce the same qualitative
structure at least 5x faster — a ratio of two runs in this process, so it
holds on any host; absolute study throughput is ``table1_study`` in
``bench/``.
"""

import time

import pytest

from benchmarks.conftest import FULL_SCALE
from repro.analysis import format_table1_row, table_row
from repro.netsim.packet import Protocol
from repro.workloads.wan import CITY_SPECS, WanScenario

PROBES = 86_400 if FULL_SCALE else 3_000
INTERVAL = 1.0 if FULL_SCALE else 1.0

# The event-driven run's wall-clock, shared with the fast-path test below
# so the study is simulated (expensively) only once per session.
_TIMINGS: dict[str, float] = {}


def _run_table1(*, fast: bool = False):
    scenario = WanScenario.build(seed=7)
    started = time.perf_counter()
    traces = scenario.run_protocol_study(
        probes_per_protocol=PROBES, interval=INTERVAL, fast=fast
    )
    elapsed = time.perf_counter() - started
    key = "fast" if fast else "event"
    _TIMINGS[key] = elapsed
    return traces


def _print_table(traces, *, path: str) -> None:
    print(f"\n=== Table I: RTT (ms) and loss (per-mille), vs London [{path}] ===")
    print(f"    probes per cell: {PROBES} (paper: 86400)")
    for city, by_proto in traces.items():
        print(format_table1_row(city, table_row(by_proto)))


def _assert_table1_shape(traces) -> None:
    """The paper's quantitative calibration and qualitative claims."""
    for city, by_proto in traces.items():
        spec = CITY_SPECS[city]
        for protocol, trace in by_proto.items():
            target = spec.protocols[protocol].mean_ms
            measured = trace.mean_rtt_ms()
            # Means should land near the paper's numbers (the simulator is
            # calibrated; 5% covers churn-episode luck).
            assert abs(measured - target) / target < 0.05, (
                city, protocol.name, measured, target,
            )

    # Paper's qualitative claims:
    # 1. TCP experiences the highest loss at (almost) every location.
    tcp_wins = sum(
        1
        for by_proto in traces.values()
        if by_proto[Protocol.TCP].loss_per_mille()
        >= max(
            by_proto[p].loss_per_mille()
            for p in (Protocol.UDP, Protocol.ICMP)
        )
    )
    assert tcp_wins >= 4, "TCP should be the lossiest protocol at most sites"

    # 2. UDP shows the highest RTT variation (route spraying).
    udp_most_variable = sum(
        1
        for by_proto in traces.values()
        if by_proto[Protocol.UDP].std_rtt_ms()
        >= max(
            by_proto[p].std_rtt_ms()
            for p in (Protocol.ICMP, Protocol.RAW_IP)
        )
    )
    assert udp_most_variable >= 4

    # 3. New York: UDP/TCP ride faster routes than ICMP/raw.
    newyork = traces["newyork"]
    assert newyork[Protocol.UDP].mean_rtt_ms() < newyork[Protocol.ICMP].mean_rtt_ms()
    assert newyork[Protocol.TCP].mean_rtt_ms() < newyork[Protocol.RAW_IP].mean_rtt_ms()
    # ... and suffers by far the worst TCP loss in the table.
    assert newyork[Protocol.TCP].loss_per_mille() == max(
        by_proto[Protocol.TCP].loss_per_mille() for by_proto in traces.values()
    )


def test_bench_table1(once):
    traces = once(_run_table1)
    from repro.analysis import maybe_export_summary

    maybe_export_summary("table1", traces)
    _print_table(traces, path="event-driven")
    _assert_table1_shape(traces)


@pytest.mark.perf_smoke
def test_bench_table1_fast(once):
    traces = once(lambda: _run_table1(fast=True))
    _print_table(traces, path="fast")
    # The fast path must satisfy the exact same shape assertions...
    _assert_table1_shape(traces)
    # ...and deliver the speedup that justifies its existence.
    event_seconds = _TIMINGS.get("event")
    if event_seconds is None:  # fast test ran alone: time the reference now
        _run_table1(fast=False)
        event_seconds = _TIMINGS["event"]
    fast_seconds = _TIMINGS["fast"]
    speedup = event_seconds / fast_seconds
    print(
        f"\nevent-driven {event_seconds:.3f}s vs fast {fast_seconds:.3f}s "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"fast path only {speedup:.1f}x faster "
        f"({fast_seconds:.3f}s vs {event_seconds:.3f}s)"
    )
