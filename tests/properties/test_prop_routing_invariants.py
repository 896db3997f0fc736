"""Routing invariants as predicates over the tables the router emits.

Nothing here computes a route. Each check reads a finished
:class:`RouteTree` (or a finished path) and asserts a *local* condition
on it, in the style of "A Program Logic for Verifying Secure Routing
Protocols": if every AS's entry is the best of what its neighbours
export to it, the tree is the Gao-Rexford stable state, whoever computed
it and however. The module shares no code with ``GaoRexfordRouter`` or
with the reference the differential suite keeps
(``tests/netsim/route_reference.py``) — not even ``is_valley_free`` — so
it stays an independent oracle when either of them changes.

Checked for every destination of every generated topology, and again
after each step of a short ``add_relationship`` churn sequence:

(a) **stable state** — an AS's ``(pref_class, pref_len, next_hop)`` is
    the minimum, in that order, over exactly what its neighbours export
    to it: a customer and a peer export only their customer routes, a
    provider exports its preferred route of whatever class; the
    destination holds ``(0, 0, dst)``; an AS nobody exports to is
    unreachable;
(b) **policy path = forwarding path** — the path ``src`` is told is the
    path its packets take: its tail is the path the next hop would be
    told itself;
(c) **valley-free and loop-free** — every emitted path matches
    ``up* peer? down*`` and repeats no AS.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.conduit import Link
from repro.netsim.internet import Relation, generate_internet
from tests.properties.test_prop_internet import internet_configs

UNREACHABLE = (-1, 1 << 30, -1)

#: Route class an AS files a route under, by what the exporting neighbour
#: is to it.
CLASS_LEARNED_FROM = {
    Relation.CUSTOMER: 0,
    Relation.PEER: 1,
    Relation.PROVIDER: 2,
}

VALLEY_FREE = re.compile(r"u*p?d*")
STEP_LETTER = {
    Relation.PROVIDER: "u",
    Relation.PEER: "p",
    Relation.CUSTOMER: "d",
}


def neighbours(topology):
    """``{asn: [(neighbour, what the neighbour is to asn), ...]}``."""
    table = {asn: [] for asn in topology.ases}
    for (a, b), relation in topology.relation_of.items():
        table[a].append((b, relation))
    return table


def assert_stable_state(topology, tree, adjacency):
    dst = tree.dst
    for asn in topology.ases:
        held = (tree.pref_class[asn], tree.pref_len[asn], tree.next_hop[asn])
        if asn == dst:
            assert held == (0, 0, dst), (dst, held)
            assert tree.customer_next[asn] == -1
            continue
        offers = []
        for neighbour, relation in adjacency[asn]:
            neighbour_class = tree.pref_class[neighbour]
            exports = (
                neighbour_class != -1
                if relation is Relation.PROVIDER
                else neighbour_class == 0
            )
            if exports:
                offers.append((
                    CLASS_LEARNED_FROM[relation],
                    tree.pref_len[neighbour] + 1,
                    neighbour,
                ))
        expected = min(offers, default=UNREACHABLE)
        assert held == expected, (dst, asn, held, expected)
        # The descent table repeats the customer route and nothing else.
        descent = held[2] if held[0] == 0 else -1
        assert tree.customer_next[asn] == descent, (dst, asn)


def assert_paths_consistent(topology, dst):
    paths = {
        src: topology.policy_segment_asns(src, dst) for src in topology.ases
    }
    for src, path in paths.items():
        assert path[0] == src and path[-1] == dst, (src, dst, path)
        assert len(set(path)) == len(path), f"loop in {path}"
        steps = "".join(
            STEP_LETTER[topology.relation_of[hop]]
            for hop in zip(path, path[1:])
        )
        assert VALLEY_FREE.fullmatch(steps), (path, steps)
        if src != dst:
            assert path[1:] == paths[path[1]], (src, dst, path)


def assert_routing_invariants(topology):
    adjacency = neighbours(topology)
    for dst in sorted(topology.ases):
        assert_stable_state(topology, topology.router.tree(dst), adjacency)
        assert_paths_consistent(topology, dst)


#: One churn step: two AS picks and whether the new adjacency is a
#: peering (else the lower ASN becomes the higher one's provider, which
#: keeps the provider hierarchy acyclic the way the generator builds it).
churn_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.booleans(),
    ),
    min_size=3,
    max_size=3,
)


class TestRoutingInvariants:
    @given(internet_configs(), churn_steps)
    @settings(max_examples=8, deadline=None)
    def test_hold_on_generated_topologies_and_under_churn(self, config, steps):
        topology = generate_internet(config)
        assert_routing_invariants(topology)
        ases = sorted(topology.ases)
        for step, (pick_a, pick_b, peering) in enumerate(steps):
            a, b = sorted((ases[pick_a % len(ases)], ases[pick_b % len(ases)]))
            if a == b or (a, b) in topology.relation_of:
                continue
            topology.add_relationship(
                a,
                b,
                Relation.PEER if peering else Relation.CUSTOMER,
                Link.symmetric(f"churn-{step}", base_delay=5e-3, seed=step),
            )
            assert_routing_invariants(topology)
