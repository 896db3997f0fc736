"""The guided localization strategy (§VI-D: historical hints)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.localization import FaultLocalizer
from repro.core.probing import SegmentProber
from repro.netsim import FaultInjector, InterfaceId
from repro.netsim.faults import FaultLocation
from repro.workloads.scenarios import deployed_chain


@pytest.fixture
def chain6():
    scenario, fleet = deployed_chain(6, seed=71, fleet_seed=72)
    prober = SegmentProber(fleet, probes=15, interval_us=5000)
    return scenario, FaultLocalizer(prober)


class TestGuidedStrategy:
    def test_correct_link_hint_needs_one_measurement(self, chain6):
        scenario, localizer = chain6
        injector = FaultInjector(scenario.topology)
        fault = injector.link_delay(
            InterfaceId(5, 2), InterfaceId(6, 1),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
        report = localizer.localize(
            scenario.registry.shortest(1, 6),
            strategy="guided", hint=fault.location,
        )
        assert report.found(fault.location)
        assert report.measurements_used == 1

    def test_correct_interior_hint(self, chain6):
        scenario, localizer = chain6
        injector = FaultInjector(scenario.topology)
        fault = injector.as_internal_delay(4, extra_delay=20e-3, start=0.0, end=1e12)
        report = localizer.localize(
            scenario.registry.shortest(1, 6),
            strategy="guided", hint=fault.location,
        )
        assert report.found(fault.location)
        assert report.measurements_used == 3  # bracket + both links

    def test_wrong_hint_falls_back_to_binary(self, chain6):
        scenario, localizer = chain6
        injector = FaultInjector(scenario.topology)
        fault = injector.link_delay(
            InterfaceId(5, 2), InterfaceId(6, 1),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
        wrong_hint = FaultLocation(
            link=(InterfaceId(1, 2), InterfaceId(2, 1))
        )
        report = localizer.localize(
            scenario.registry.shortest(1, 6),
            strategy="guided", hint=wrong_hint,
        )
        assert report.found(fault.location)
        # One wasted hint check plus the binary-search measurements.
        baseline = localizer.localize(
            scenario.registry.shortest(1, 6), strategy="binary"
        )
        assert report.measurements_used == baseline.measurements_used + 1

    def test_interior_hint_but_adjacent_link_fault(self, chain6):
        """The bracket around the hinted AS is degraded, but the checks
        attribute it to the adjacent link, not the interior."""
        scenario, localizer = chain6
        injector = FaultInjector(scenario.topology)
        fault = injector.link_delay(
            InterfaceId(3, 2), InterfaceId(4, 1),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
        hint = FaultLocation(asn=4)  # interior of AS4 suspected
        report = localizer.localize(
            scenario.registry.shortest(1, 6), strategy="guided", hint=hint
        )
        assert report.found(fault.location)

    def test_guided_requires_hint(self, chain6):
        scenario, localizer = chain6
        with pytest.raises(ConfigurationError):
            localizer.localize(scenario.registry.shortest(1, 6), strategy="guided")

    def test_hint_off_path_falls_back(self, chain6):
        scenario, localizer = chain6
        injector = FaultInjector(scenario.topology)
        fault = injector.link_delay(
            InterfaceId(2, 2), InterfaceId(3, 1),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
        off_path_hint = FaultLocation(asn=99)
        report = localizer.localize(
            scenario.registry.shortest(1, 6), strategy="guided",
            hint=off_path_hint,
        )
        assert report.found(fault.location)
