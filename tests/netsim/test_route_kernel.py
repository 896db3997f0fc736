"""The route-tree kernel against the code it replaced.

``tests/netsim/route_reference.py`` is the dict/list three-phase BFS
``GaoRexfordRouter`` ran before route trees became arrays, kept verbatim.
Every test here that compares tables requires all four
:class:`RouteTree` tables to be *equal* to the reference's — same
preference classes, same lengths, same tie-breaks, same ``-1`` /
unreachable rows — for single trees and for batches alike. (What the
tables must satisfy regardless of who computed them is
``tests/properties/test_prop_routing_invariants.py``.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.netsim.conduit import Link
from repro.netsim.internet import (
    GaoRexfordRouter,
    InternetConfig,
    InternetTopology,
    Relation,
    generate_internet,
)
from repro.workloads.wanbench import WanbenchConfig, build_continent
from tests.netsim.route_reference import reference_tree
from tests.properties.test_prop_internet import internet_configs

TABLES = ("pref_class", "pref_len", "next_hop", "customer_next")
UNREACH = 1 << 30


def assert_same_tables(tree, expected):
    assert tree.dst == expected.dst
    for name in TABLES:
        assert getattr(tree, name) == getattr(expected, name), (tree.dst, name)


def assert_router_matches_reference(topology, destinations=None):
    """Single trees, then one batch over the same list, against the reference."""
    if destinations is None:
        destinations = sorted(topology.ases)
    expected = [reference_tree(topology, dst) for dst in destinations]
    for dst, reference in zip(destinations, expected):
        assert_same_tables(topology.router.tree(dst), reference)
    topology.router.invalidate()
    batched = list(topology.router.trees(destinations))
    assert len(batched) == len(expected)
    for tree, reference in zip(batched, expected):
        assert_same_tables(tree, reference)


def hand_built(edges, *, isolated=()):
    """A topology from ``(a, b, what b is to a)`` triples."""
    topology = InternetTopology(InternetConfig())
    for a, b, _relation in edges:
        for asn in (a, b):
            if asn not in topology.ases:
                topology.make_as(asn, seed=asn)
    for asn in isolated:
        topology.make_as(asn, seed=asn)
    for a, b, relation in edges:
        topology.add_relationship(
            a, b, relation, Link.symmetric(f"l-{a}-{b}", base_delay=1e-3, seed=a)
        )
    return topology


CUSTOMER, PROVIDER, PEER = Relation.CUSTOMER, Relation.PROVIDER, Relation.PEER


class TestAgainstReference:
    @given(internet_configs())
    @settings(max_examples=15, deadline=None)
    def test_every_tree_of_generated_topologies(self, config):
        assert_router_matches_reference(generate_internet(config))

    @given(
        internet_configs(),
        st.lists(st.integers(min_value=0, max_value=10**6), max_size=200),
        st.lists(st.integers(min_value=1, max_value=90), min_size=1, max_size=8),
    )
    @settings(max_examples=15, deadline=None)
    def test_batches_equal_single_trees_for_any_split(self, config, picks, cuts):
        """Any destination list (repeats included), asked for in any
        pieces, against a router whose LRU carries over between pieces."""
        topology = generate_internet(config)
        ases = sorted(topology.ases)
        destinations = [ases[pick % len(ases)] for pick in picks]
        expected = {
            dst: reference_tree(topology, dst) for dst in set(destinations)
        }
        position = 0
        for cut in cuts + [len(destinations)]:
            piece = destinations[position:position + cut]
            position += cut
            trees = list(topology.router.trees(piece))
            assert [tree.dst for tree in trees] == piece
            for tree in trees:
                assert_same_tables(tree, expected[tree.dst])

    def test_tables_and_paths_hold_python_ints(self):
        topology = generate_internet(InternetConfig(n_ases=60, seed=2))
        single = topology.router.tree(7)
        batched = list(topology.router.trees([9, 11]))
        for tree in (single, *batched):
            assert type(tree.dst) is int
            for name in TABLES:
                assert {type(x) for x in getattr(tree, name)} == {int}, name
        assert {type(x) for x in topology.policy_segment_asns(55, 7)} == {int}
        hops = topology.shortest_path(55, 9)
        assert {type(hop.asn) for hop in hops} == {int}


class TestEachRuleAlone:
    def test_equal_length_customer_routes_lowest_asn_wins(self):
        # 10 buys from 3 and from 2, both buy from 1.
        topology = hand_built([
            (10, 3, PROVIDER), (10, 2, PROVIDER), (3, 1, PROVIDER), (2, 1, PROVIDER),
        ])
        tree = topology.router.tree(10)
        assert (tree.pref_class[1], tree.pref_len[1], tree.next_hop[1]) == (0, 2, 2)
        assert tree.customer_next[1] == 2
        assert topology.policy_segment_asns(1, 10) == [1, 2, 10]
        assert_router_matches_reference(topology)

    def test_longer_customer_route_beats_shorter_peer_route(self):
        # 1 -> 2 -> 3 -> 4 down customer edges; 1 also peers with 5, and 5
        # sells to 4 directly.
        topology = hand_built([
            (1, 2, CUSTOMER), (2, 3, CUSTOMER), (3, 4, CUSTOMER),
            (1, 5, PEER), (5, 4, CUSTOMER),
        ])
        tree = topology.router.tree(4)
        assert (tree.pref_class[1], tree.pref_len[1], tree.next_hop[1]) == (0, 3, 2)
        assert topology.policy_segment_asns(1, 4) == [1, 2, 3, 4]
        assert_router_matches_reference(topology)

    def test_peer_tie_broken_by_length_then_asn(self):
        # 9 peers with 5 (customer route of length 2), 6 and 7 (length 1).
        topology = hand_built([
            (5, 8, CUSTOMER), (8, 10, CUSTOMER), (6, 10, CUSTOMER), (7, 10, CUSTOMER),
            (9, 5, PEER), (9, 7, PEER), (9, 6, PEER),
        ])
        tree = topology.router.tree(10)
        assert (tree.pref_class[9], tree.pref_len[9], tree.next_hop[9]) == (1, 2, 6)
        assert tree.customer_next[9] == -1
        assert topology.policy_segment_asns(9, 10) == [9, 6, 10]
        assert_router_matches_reference(topology)

    def test_provider_exports_its_preferred_route_not_its_shortest(self):
        # 1 reaches 10 over customers in 3 hops and over its peer 4 in 2; it
        # prefers the customer route, so that is what its customer 20 gets.
        # 21 buys from 1 and from 5, whose peer route is one hop shorter.
        topology = hand_built([
            (1, 2, CUSTOMER), (2, 3, CUSTOMER), (3, 10, CUSTOMER),
            (1, 4, PEER), (4, 10, CUSTOMER),
            (20, 1, PROVIDER),
            (5, 4, PEER), (21, 1, PROVIDER), (21, 5, PROVIDER),
        ])
        tree = topology.router.tree(10)
        assert (tree.pref_class[1], tree.pref_len[1]) == (0, 3)
        assert (tree.pref_class[20], tree.pref_len[20], tree.next_hop[20]) == (2, 4, 1)
        assert topology.policy_segment_asns(20, 10) == [20, 1, 2, 3, 10]
        assert (tree.pref_class[21], tree.pref_len[21], tree.next_hop[21]) == (2, 3, 5)
        assert topology.policy_segment_asns(21, 10) == [21, 5, 4, 10]
        assert_router_matches_reference(topology)

    def test_as_without_a_valley_free_route_is_unreachable(self):
        # 31 hears of 10 from its peer 4; peers do not re-export to peers,
        # so 30 (peering with 31 only) and the isolated 40 hear nothing.
        topology = hand_built(
            [(4, 10, CUSTOMER), (31, 4, PEER), (30, 31, PEER)], isolated=(40,)
        )
        tree = topology.router.tree(10)
        assert tree.pref_class[31] == 1
        for asn in (30, 40):
            assert (
                tree.pref_class[asn], tree.pref_len[asn],
                tree.next_hop[asn], tree.customer_next[asn],
            ) == (-1, UNREACH, -1, -1)
            with pytest.raises(SimulationError, match=f"AS {asn} to AS 10"):
                topology.policy_segment_asns(asn, 10)
        assert_router_matches_reference(topology)

    def test_asn_gaps_leave_unreachable_rows(self):
        topology = hand_built([
            (250, 100, PROVIDER), (100, 7, PROVIDER), (3, 7, PEER), (3, 60, CUSTOMER),
        ])
        tree = topology.router.tree(250)
        assert len(tree.pref_class) == 251
        assert tree.pref_class[249] == -1 and tree.pref_len[249] == UNREACH
        assert topology.policy_segment_asns(60, 250) == [60, 3, 7, 100, 250]
        assert_router_matches_reference(topology)

    def test_one_as_and_repeated_destination_batches(self):
        alone = hand_built([], isolated=(6,))
        (tree,) = alone.router.trees([6])
        assert_same_tables(tree, reference_tree(alone, 6))
        assert alone.policy_segment_asns(6, 6) == [6]

        topology = generate_internet(InternetConfig(n_ases=40, seed=5))
        trees = list(topology.router.trees([9, 9, 4, 9]))
        assert trees[0] is trees[1] is trees[3]
        assert topology.router.trees_computed == 2
        for tree in trees:
            assert_same_tables(tree, reference_tree(topology, tree.dst))


class TestRouterState:
    def test_relationship_added_later_shows_in_the_next_tree(self):
        topology = hand_built([
            (1, 2, CUSTOMER), (2, 3, CUSTOMER), (3, 4, CUSTOMER),
        ])
        assert topology.policy_segment_asns(1, 4) == [1, 2, 3, 4]
        topology.add_relationship(
            1, 4, CUSTOMER, Link.symmetric("shortcut", base_delay=1e-3)
        )
        assert topology.policy_segment_asns(1, 4) == [1, 4]
        assert_router_matches_reference(topology)

    def test_as_added_later_shows_in_the_next_tree(self):
        topology = hand_built([(1, 2, CUSTOMER)])
        assert len(topology.router.tree(2).pref_class) == 3
        topology.make_as(9, seed=9)
        with pytest.raises(SimulationError, match="AS 9 to AS 2"):
            topology.policy_segment_asns(9, 2)
        assert len(topology.router.tree(9).pref_class) == 10
        assert_router_matches_reference(topology)

    def test_batch_members_survive_until_used(self):
        """With an LRU smaller than the sink list, every sink is still
        computed once: a batch never outgrows the LRU, cached members are
        not recomputed, and none is evicted before the caller's own
        lookups."""
        topology = generate_internet(InternetConfig(n_ases=80, seed=4))
        router = GaoRexfordRouter(topology, cache_size=4)
        sinks = list(range(1, 31))
        for tree in router.trees(sinks):
            assert router.tree(tree.dst) is tree
            assert router.path_asns(80, tree.dst)[-1] == tree.dst
        assert router.trees_computed == 30
        assert list(router._trees) == [27, 28, 29, 30]
        # A piece mixing cached and uncached destinations computes only the latter.
        assert [tree.dst for tree in router.trees([29, 5, 30, 5])] == [29, 5, 30, 5]
        assert router.trees_computed == 31

    @pytest.mark.parametrize(
        "query",
        [
            lambda t: t.policy_segment_asns(-1, 5),
            lambda t: t.policy_segment_asns(51, 5),
            lambda t: t.policy_segment_asns(5, 51),
            lambda t: t.router.tree(-1),
            lambda t: t.router.tree(0),
            lambda t: list(t.router.trees([5, 51])),
            lambda t: t.policy_segment_asns(77, 77),
        ],
        ids=["src-1", "src51", "dst51", "tree-1", "tree0", "batch51", "self77"],
    )
    def test_unknown_asn_is_refused_before_anything_is_computed(self, query):
        topology = generate_internet(InternetConfig(n_ases=50, seed=0))
        with pytest.raises(SimulationError, match=r"AS (-1|0|51|77) is not in"):
            query(topology)
        assert not topology.router._trees
        assert topology.router.trees_computed == 0


@pytest.mark.wan
class TestAtWanSizes:
    def test_all_1000_trees_batched_and_single(self):
        assert_router_matches_reference(
            generate_internet(InternetConfig(n_ases=1000, seed=1))
        )

    def test_sampled_trees_at_5000_ases(self):
        topology = generate_internet(InternetConfig(n_ases=5000, seed=1))
        destinations = sorted(topology.ases)[::39]
        assert len(destinations) >= 128
        assert_router_matches_reference(topology, destinations)

    @pytest.mark.parametrize("seed, parent_count", [(1, 555), (2, 554)])
    def test_build_computes_the_trees_the_parent_computed(self, seed, parent_count):
        """One tree per distinct sink plus the episode sampler's misses: a
        batch computes no tree nobody asked for and evicts none of its own
        members before use (counts read off the commit before the kernel)."""
        scenario = build_continent(
            WanbenchConfig(n_ases=1000, episodes=40, seed=seed)
        )
        assert scenario.topology.router.trees_computed == parent_count
