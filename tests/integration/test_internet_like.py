"""Localization and pinning on an Internet-like hierarchy."""

import pytest

from repro.core.localization import FaultLocalizer
from repro.core.probing import ExecutorFleet, SegmentProber
from repro.netsim import FaultInjector, InterfaceId, Link, Network, Simulator, Topology
from repro.pathaware import PathPolicy, PathRegistry, PathSelector
from repro.workloads import ChainScenario


def build_internet_like(*, n_tier2: int, stubs_per_tier2: int, seed: int) -> ChainScenario:
    """A small Internet-like hierarchy.

    Two tier-1 ASes (1 and 2) peer with each other; ``n_tier2`` tier-2
    ASes each connect to *both* tier-1s (multihoming, so multiple paths
    exist); each tier-2 serves ``stubs_per_tier2`` stub ASes. ASNs:
    tier-1 = 1, 2; tier-2 = 10, 11, ...; stubs = 100, 101, ...
    """
    simulator = Simulator()
    topology = Topology()
    topology.make_as(1, name="tier1-a", internal_delay=0.5e-3, seed=seed + 1)
    topology.make_as(2, name="tier1-b", internal_delay=0.5e-3, seed=seed + 2)
    topology.connect(
        1, 1, 2, 1, Link.symmetric("t1-peering", base_delay=8e-3, seed=seed + 10)
    )
    stub_asn = 100
    for index in range(n_tier2):
        t2 = 10 + index
        topology.make_as(t2, name=f"tier2-{index}", internal_delay=0.4e-3,
                         seed=seed + t2)
        topology.connect(t2, 1, 1, 10 + index, Link.symmetric(
            f"t2{index}-t1a", base_delay=4e-3, seed=seed + 20 + index))
        topology.connect(t2, 2, 2, 10 + index, Link.symmetric(
            f"t2{index}-t1b", base_delay=4e-3, seed=seed + 30 + index))
        for s in range(stubs_per_tier2):
            topology.make_as(stub_asn, name=f"stub-{stub_asn}",
                             internal_delay=0.3e-3, seed=seed + stub_asn)
            topology.connect(stub_asn, 1, t2, 10 + s, Link.symmetric(
                f"stub{stub_asn}", base_delay=2e-3, seed=seed + 200 + stub_asn))
            stub_asn += 1
    return ChainScenario(
        simulator=simulator,
        topology=topology,
        network=Network(topology, simulator, seed=seed),
        registry=PathRegistry(topology),
        n_ases=len(topology.ases),
    )


@pytest.fixture
def hierarchy():
    scenario = build_internet_like(n_tier2=3, stubs_per_tier2=2, seed=5)
    fleet = ExecutorFleet(scenario.network, seed=6)
    fleet.deploy_full()
    return scenario, fleet


class TestHierarchy:
    def test_multihoming_gives_multiple_paths(self, hierarchy):
        scenario, _ = hierarchy
        paths = scenario.registry.paths(100, 103)
        assert len(paths) >= 2
        tier1s_used = {asns[2] for asns in (p.asns() for p in paths) if len(asns) >= 3}
        assert {1, 2} & tier1s_used

    def test_localize_tier2_to_tier1_link_fault(self, hierarchy):
        scenario, fleet = hierarchy
        selector = PathSelector(scenario.registry)
        # Pin the stub-to-stub path through tier1-a.
        path = selector.select(100, 103, PathPolicy(require_asns=frozenset({1})))
        injector = FaultInjector(scenario.topology)
        # Fault on the tier2(10) <-> tier1(1) link, which is on the path.
        fault = injector.link_delay(
            InterfaceId(10, 1), InterfaceId(1, 10),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
        prober = SegmentProber(fleet, probes=12, interval_us=5000)
        localizer = FaultLocalizer(prober)
        report = localizer.localize(path, strategy="binary")
        assert report.found(fault.location)

    def test_fault_avoidable_via_other_tier1(self, hierarchy):
        scenario, fleet = hierarchy
        selector = PathSelector(scenario.registry)
        injector = FaultInjector(scenario.topology)
        injector.link_delay(
            InterfaceId(10, 1), InterfaceId(1, 10),
            extra_delay=20e-3, start=0.0, end=1e12,
        )
        detour = selector.select(
            100, 103, PathPolicy(avoid_asns=frozenset({1}))
        )
        assert 1 not in detour.asns()
        prober = SegmentProber(fleet, probes=12, interval_us=5000)
        measurement = prober.measure_sync(
            (100, 1), (103, 1),
            detour.subsegment(100, 103),
        )
        assert measurement.mean_rtt_ms() < 30.0  # clean via tier1-b
