"""§VI-D ablation: measurement-selection strategies.

The paper's example: a path over 10 consecutive ASes with the fault on
the *last* inter-domain link — the worst case for a linear scan and the
motivating case for binary search. The test compares measurements used,
time-to-locate, and (slot-price) cost across the three strategies.
"""

from repro.core.localization import FaultLocalizer
from repro.core.probing import SegmentProber
from repro.netsim import FaultInjector, InterfaceId
from repro.workloads.scenarios import deployed_chain

N_ASES = 10
SLOT_PRICE_SUI = 0.05  # per executor per measurement


def _run_strategies():
    results = {}
    for strategy in ("binary", "linear", "exhaustive", "guided"):
        scenario, fleet = deployed_chain(N_ASES, seed=43, fleet_seed=44)
        injector = FaultInjector(scenario.topology)
        fault = injector.link_delay(
            InterfaceId(N_ASES - 1, 2), InterfaceId(N_ASES, 1),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
        prober = SegmentProber(fleet, probes=15, interval_us=5000)
        localizer = FaultLocalizer(prober)
        # The guided strategy gets a historical hint (e.g. from the §VI-F
        # archive): this link has failed before.
        hint = fault.location if strategy == "guided" else None
        report = localizer.localize(
            scenario.registry.shortest(1, N_ASES), strategy=strategy, hint=hint
        )
        results[strategy] = (fault, report)
    return results


def test_strategy_ablation():
    results = _run_strategies()

    print(f"\n=== §VI-D: localization strategies, {N_ASES}-AS path, "
          "fault on the last link ===")
    print("  strategy    measurements  time-to-locate  est. cost (SUI)  found")
    for strategy, (fault, report) in results.items():
        cost = report.measurements_used * 2 * SLOT_PRICE_SUI
        print(
            f"  {strategy:<10}  {report.measurements_used:12d}  "
            f"{report.time_to_locate:13.2f}s  {cost:14.2f}  "
            f"{report.found(fault.location)}"
        )

    for strategy, (fault, report) in results.items():
        assert report.found(fault.location), strategy

    binary = results["binary"][1]
    linear = results["linear"][1]
    exhaustive = results["exhaustive"][1]
    guided = results["guided"][1]
    # Binary search beats both on measurement count for a single deep
    # fault (the §VI-D argument).
    assert binary.measurements_used < linear.measurements_used
    assert binary.measurements_used < exhaustive.measurements_used
    # Exhaustive measures every link (n-1) plus every interior triple.
    assert exhaustive.measurements_used == (N_ASES - 1) + (N_ASES - 2)
    # A good historical hint collapses the search to one measurement.
    assert guided.measurements_used == 1
