"""Property test: localization finds a randomly placed fault.

For random chain lengths and fault positions (any link or any transit-AS
interior), the binary-search localizer must name exactly the injected
location. This is the system's core end-to-end invariant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.localization import FaultLocalizer
from repro.core.probing import SegmentProber
from repro.netsim import FaultInjector, InterfaceId
from repro.workloads.scenarios import deployed_chain


@st.composite
def chain_and_fault(draw):
    n_ases = draw(st.integers(min_value=3, max_value=7))
    kind = draw(st.sampled_from(["link", "interior"]))
    if kind == "link":
        index = draw(st.integers(min_value=1, max_value=n_ases - 1))
        location = ("link", index)
    else:
        asn = draw(st.integers(min_value=2, max_value=n_ases - 1))
        location = ("interior", asn)
    seed = draw(st.integers(min_value=0, max_value=50))
    return n_ases, location, seed


class TestLocalizationProperty:
    @given(chain_and_fault())
    @settings(max_examples=12, deadline=None)
    def test_binary_finds_any_single_fault(self, case):
        n_ases, (kind, where), seed = case
        scenario, fleet = deployed_chain(n_ases, seed=seed, fleet_seed=seed + 1)
        injector = FaultInjector(scenario.topology)
        if kind == "link":
            fault = injector.link_delay(
                InterfaceId(where, 2), InterfaceId(where + 1, 1),
                extra_delay=25e-3, start=0.0, end=1e15,
            )
        else:
            fault = injector.as_internal_delay(
                where, extra_delay=25e-3, start=0.0, end=1e15
            )
        prober = SegmentProber(fleet, probes=10, interval_us=5000)
        localizer = FaultLocalizer(prober)
        report = localizer.localize(
            scenario.registry.shortest(1, n_ases), strategy="binary"
        )
        assert report.found(fault.location), (case, report.suspects)
        assert len(report.suspects) == 1
