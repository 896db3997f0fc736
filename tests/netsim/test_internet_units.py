"""Units for the Internet generator and background traffic."""

import pytest

from repro.common.errors import ConfigurationError
from repro.netsim.internet import (
    InternetConfig,
    Relation,
    generate_internet,
)
from repro.netsim.traffic import TrafficMatrix


@pytest.fixture(scope="module")
def topology():
    return generate_internet(InternetConfig(n_ases=200, seed=3, regions=4))


class TestGenerator:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            InternetConfig(n_ases=2)
        with pytest.raises(ConfigurationError):
            InternetConfig(n_ases=100, tier1=1)
        with pytest.raises(ConfigurationError):
            InternetConfig(n_ases=100, peer_fraction=1.5)

    def test_tier1_forms_a_peer_clique(self, topology):
        tier1 = list(range(1, topology.config.tier1 + 1))
        for a in tier1:
            for b in tier1:
                if a != b:
                    assert topology.relation_of[(a, b)] is Relation.PEER

    def test_every_non_tier1_as_has_a_provider(self, topology):
        for asn in topology.ases:
            if asn > topology.config.tier1:
                assert topology.providers_of.get(asn), asn

    def test_power_law_degree_spread(self, topology):
        degrees = sorted(
            (topology.degree(a) for a in topology.ases), reverse=True
        )
        # Hubs far above the median is the power-law signature.
        median = degrees[len(degrees) // 2]
        assert degrees[0] >= 5 * median

    def test_regions_cover_all_ases(self, topology):
        regions = {topology.region_of[a] for a in topology.ases}
        assert regions <= set(range(topology.config.regions))
        assert len(regions) == topology.config.regions

    def test_links_iterates_each_adjacency_once(self, topology):
        seen = set()
        for a, b, _link in topology.links():
            assert a < b
            assert (a, b) not in seen
            seen.add((a, b))
        assert len(seen) == len(topology.relation_of) // 2

    def test_route_tree_cache_is_bounded(self, topology):
        router = topology.router
        for dst in list(sorted(topology.ases))[:80]:
            router.tree(dst)
        assert len(router._trees) <= 64
        assert router.trees_computed >= 80

    def test_valley_free_rejects_valleys(self, topology):
        # provider -> customer -> provider is a valley by construction:
        # take any AS with a provider and two providers of that provider.
        for asn in sorted(topology.ases):
            providers = topology.providers_of.get(asn, [])
            if len(providers) >= 2:
                p1, p2 = providers[0], providers[1]
                assert not topology.is_valley_free([p1, asn, p2])
                return
        pytest.skip("no multihomed AS in this topology")


class TestTrafficMatrix:
    def test_loads_are_deterministic_and_congest_channels(self, topology):
        first = TrafficMatrix(topology, seed=9, demands_per_as=1.0)
        second = TrafficMatrix(topology, seed=9, demands_per_as=1.0)
        assert first.channel_load == second.channel_load
        assert first.channel_load, "gravity demands must load some channels"
        applied = first.apply()
        assert applied == len(first.channel_load)
        # The loaded channel really carries a congestion process now.
        (a, b) = max(first.channel_load, key=first.channel_load.get)
        from repro.netsim.topology import InterfaceId

        channel = topology.channel_between(
            InterfaceId(a, topology.interface_on[(a, b)]),
            InterfaceId(b, topology.interface_on[(b, a)]),
        )
        assert channel.congestion is not None
        assert (
            channel.congestion.config.base_utilization
            == first.utilization_of(a, b)
        )

    def test_utilization_respects_floor_and_cap(self, topology):
        matrix = TrafficMatrix(
            topology, seed=9, utilization_floor=0.1, utilization_cap=0.5
        )
        for (a, b) in list(matrix.channel_load)[:50]:
            assert 0.1 <= matrix.utilization_of(a, b) <= 0.5
