"""Fig 6: inter-domain-link-granularity fault localization.

Regenerates the paper's worked example: executors A-D around AS #2
validate the three hypotheses (link 1-2 faulty / AS 2 interior faulty /
link 2-3 faulty) with three D2D measurements plus a decomposition. All
three ground-truth cases run, and the verdicts are printed.
"""

from repro.core.localization import FaultLocalizer
from repro.core.probing import SegmentProber
from repro.netsim import FaultInjector, InterfaceId
from repro.workloads.scenarios import Fig6Scenario


def _localize_case(case: str):
    scenario = Fig6Scenario.build(seed=21)
    injector = FaultInjector(scenario.chain.topology)
    if case == "link12":
        fault = injector.link_delay(
            InterfaceId(1, 2), InterfaceId(2, 1),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
    elif case == "interior2":
        fault = injector.as_internal_delay(
            2, extra_delay=20e-3, start=0.0, end=1e12
        )
    else:
        fault = injector.link_delay(
            InterfaceId(2, 2), InterfaceId(3, 1),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
    prober = SegmentProber(scenario.fleet, probes=20, interval_us=5000)
    localizer = FaultLocalizer(prober)
    report = localizer.localize(
        scenario.chain.registry.shortest(1, 3), strategy="exhaustive"
    )
    return fault, report


def test_fig6_localizes_each_hypothesis():
    results = {
        case: _localize_case(case) for case in ("link12", "interior2", "link23")
    }

    print("\n=== Fig 6: fault localization around AS #2 (executors A-D) ===")
    for case, (fault, report) in results.items():
        print(
            f"  truth={str(fault.location):<22} verdict="
            f"{[str(s) for s in report.suspects]}  "
            f"measurements={report.measurements_used} "
            f"time={report.time_to_locate:.2f}s"
        )

    for case, (fault, report) in results.items():
        assert report.found(fault.location), case
        assert len(report.suspects) == 1, case
