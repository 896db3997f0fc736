"""Fig 1: New York - London RTT over 4 hours.

The paper's figure shows (a) UDP and TCP consistently *below* ICMP and raw
IP, and (b) sudden ~5 ms steps visible across protocols, attributed to
route changes. The paper picked a 4-hour window that shows steps; so does
this test, from the scenario's own route-churn schedule: it probes New
York for a day at one probe per second, takes the first of the day's six
4-hour windows in which a route shift starts, and checks that a step is
detected near every boundary of a shift in that window.
"""

from repro.analysis import step_changes
from repro.netsim import InterfaceId
from repro.netsim.packet import Protocol
from repro.workloads.wan import WanScenario

SEED = 7
DAY = 86_400
WINDOW = 4 * 3600.0
#: ``step_changes`` compares the means of consecutive runs of this many
#: probes (one per second). A shift shorter than two runs can vanish
#: inside them, and a boundary less than a run from the window's edge has
#: no full run on one side, so neither is expected to show; a detected
#: step is "near" a boundary within two runs.
RUN = 60
STEP_MS = 2.5
NEAR_S = 2 * RUN


def run_day(seed: int = SEED):
    """One probe per second for a day from New York, and the route shifts
    of at least two runs that its forward path's churn schedules that day."""
    scenario = WanScenario.build(seed=seed, cities=["newyork"])
    traces = scenario.run_protocol_study(probes_per_protocol=DAY, fast=True)
    host = scenario.city_hosts["newyork"]
    link, _ = scenario.topology.link_at(InterfaceId(host.address.asn, 1))
    shifts = [
        shift
        for shift in link.forward.churn.shifts
        if shift.start < DAY and shift.end - shift.start >= 2 * RUN
    ]
    return traces["newyork"], shifts


def inside(t: float, start: float) -> bool:
    """Whether ``t`` lies at least a run inside ``[start, start + WINDOW)``."""
    return start + RUN <= t < start + WINDOW - RUN


def step_window(shifts) -> float:
    """Start of the first 4-hour window of the day in which a shift starts."""
    for index in range(int(DAY // WINDOW)):
        start = index * WINDOW
        if any(inside(shift.start, start) for shift in shifts):
            return start
    raise AssertionError("no route shift starts during the day")


def check_fig1(traces, shifts, *, seed: int = SEED) -> None:
    start = step_window(shifts)
    boundaries = sorted(
        t for shift in shifts for t in (shift.start, shift.end) if inside(t, start)
    )
    means, steps = {}, {}
    for protocol, trace in traces.items():
        times, rtts = trace.time_series()
        shown = (times >= start) & (times < start + WINDOW)
        means[protocol] = float(rtts[shown].mean())
        steps[protocol] = step_changes(
            times[shown], rtts[shown], window=RUN, threshold=STEP_MS
        )
    print(
        f"\n=== Fig 1: New York - London RTT, {start / 3600:.0f}-"
        f"{(start + WINDOW) / 3600:.0f} h of a day at 1 probe/s (seed {seed}) ==="
    )
    print(f"  scheduled shift boundaries at {['%.0f s' % t for t in boundaries]}")
    for protocol in traces:
        print(
            f"  {protocol.name:<7} mean={means[protocol]:6.2f} ms "
            f"steps at {['%.0f s' % s for s in steps[protocol]]}"
        )

    # UDP and TCP consistently below ICMP and raw IP.
    for fast in (Protocol.UDP, Protocol.TCP):
        for slow in (Protocol.ICMP, Protocol.RAW_IP):
            assert means[fast] < means[slow], (fast.name, slow.name)
    # A step near every shift boundary, on at least one protocol (New
    # York's churn shifts all four together).
    found = [s for protocol_steps in steps.values() for s in protocol_steps]
    missed = [t for t in boundaries if not any(abs(s - t) <= NEAR_S for s in found)]
    assert not missed, missed


def test_fig1_newyork_steps_and_ordering():
    check_fig1(*run_day())
