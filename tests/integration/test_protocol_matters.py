"""The paper's core thesis inside Debuglet itself: probe protocol matters.

A UDP-only fault is invisible to an ICMP-based localization (what a
ping-style service would do) and found only when the Debuglets reproduce
the affected protocol — §II's conclusion, demonstrated end to end.
"""

import pytest

from repro.core.localization import FaultLocalizer
from repro.core.probing import SegmentProber
from repro.netsim import InterfaceId, Protocol
from repro.netsim.conduit import FaultOverlay
from repro.workloads.scenarios import deployed_chain


@pytest.fixture
def udp_only_fault():
    scenario, fleet = deployed_chain(4, seed=130, fleet_seed=131)
    overlay = FaultOverlay(
        start=0.0, end=1e12, extra_delay=25e-3,
        protocols=frozenset({Protocol.UDP}),
    )
    a, b = InterfaceId(2, 2), InterfaceId(3, 1)
    scenario.topology.channel_between(a, b).add_overlay(overlay)
    scenario.topology.channel_between(b, a).add_overlay(overlay)
    return scenario, fleet, (a, b)


class TestProtocolMatters:
    def test_icmp_localization_misses_udp_fault(self, udp_only_fault):
        scenario, fleet, _ = udp_only_fault
        prober = SegmentProber(fleet, probes=15, interval_us=5000)
        localizer = FaultLocalizer(prober, protocol=Protocol.ICMP)
        report = localizer.localize(
            scenario.registry.shortest(1, 4), strategy="binary"
        )
        assert report.suspects == []  # everything looks healthy over ICMP

    def test_udp_localization_finds_it(self, udp_only_fault):
        scenario, fleet, (a, b) = udp_only_fault
        prober = SegmentProber(fleet, probes=15, interval_us=5000)
        localizer = FaultLocalizer(prober, protocol=Protocol.UDP)
        report = localizer.localize(
            scenario.registry.shortest(1, 4), strategy="binary"
        )
        assert len(report.suspects) == 1
        suspect = report.suspects[0]
        assert suspect.link is not None
        assert set(suspect.link) == {a, b}

    def test_tcp_also_clean(self, udp_only_fault):
        scenario, fleet, _ = udp_only_fault
        prober = SegmentProber(fleet, probes=15, interval_us=5000)
        localizer = FaultLocalizer(prober, protocol=Protocol.TCP)
        report = localizer.localize(
            scenario.registry.shortest(1, 4), strategy="binary"
        )
        assert report.suspects == []
