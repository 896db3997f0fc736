"""The stage table can never be stale, and walks what ``walk_path`` walks.

``extract_segment_cell`` reads every channel through the topology's
long-lived :class:`~repro.netsim.fastpath.StageTable`. A state machine
mutates one small topology in every way a caller can — the mutations of
``test_prop_transit.py`` (treatment set, priority address added / discarded,
overlay added / removed, congestion replaced, ``inject_burst``,
``clear_injected``, churn replaced or grown) plus ``base_delay`` /
``jitter_std`` / ``bandwidth_bps`` assignment, an AS-level
``CongestionProcess`` shared by every interior channel of AS 2 (mutated
through one, read through the others) and measurements from vantages nobody
used before, whose interior channels do not exist until then — and after
**every** step each watched measurement must extract through the long-lived
table exactly as through a fresh one: ``stages`` equal, ``extras`` equal,
the same ``FastPathUnsupported``.

Mutation-checked (each turns this module red): a ``DirectedChannel`` setter,
``add_overlay`` or ``inject_burst`` that forgets its bump; a hit that
ignores ``priority_addresses``; a ``PER_FLOW`` stage tabled.

The generated treatments, overlays, shifts and congestion processes are
``test_prop_transit.py``'s.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.netsim import Link, Topology
from repro.netsim.congestion import CongestionConfig, CongestionProcess
from repro.netsim.ecmp import EcmpGroup, Route
from repro.netsim.fastpath import (
    FastPathUnsupported,
    StageTable,
    extract_segment_cell,
)
from repro.netsim.internet import InternetConfig, generate_internet
from repro.netsim.network import walk_path
from repro.netsim.packet import Address, Protocol
from repro.netsim.routechurn import RouteChurnProcess
from repro.pathaware.segments import PathSegment
from tests.properties.test_prop_transit import (
    build_congestion,
    congestion_recipes,
    overlays,
    profiles,
    shifts,
)

PROTOCOLS = [Protocol.UDP, Protocol.TCP, Protocol.ICMP]
ROUTES = [Route(0.0, jitter=0.1e-3), Route(1e-3, jitter=0.3e-3, weight=2.0),
          Route(2.5e-3), Route(4e-3, jitter=0.2e-3, weight=0.5)]
#: What a measurement may be addressed from / to, and what may be prioritized.
ADDRESSES = [Address(1, "exec2"), Address(1, "exec7"), Address(4, "exec1"),
             Address(3, "exec1"), Address(9, "nobody")]


def line_topology():
    """AS1 - AS2 - AS3 - AS4; both directions of link 2-3 spread over four
    routes, AS 2's interior channels share one congestion process."""
    topology = Topology()
    for asn in (1, 2, 3, 4):
        topology.make_as(
            asn, internal_delay=0.5e-3, seed=10 + asn,
            congestion=(
                CongestionProcess(CongestionConfig(burst_rate=0.0), seed=3)
                if asn == 2 else None
            ),
        )
    topology.connect(1, 2, 2, 1, Link.symmetric("l-1-2", base_delay=5e-3, seed=21))
    topology.connect(2, 2, 3, 1, Link.symmetric(
        "l-2-3", base_delay=4e-3, seed=22, ecmp=EcmpGroup(ROUTES, salt=1)))
    topology.connect(3, 2, 4, 1, Link.symmetric("l-3-4", base_delay=3e-3, seed=23))
    return topology


def same_extras(ours, fresh):
    assert [index for index, _ in ours] == [index for index, _ in fresh]
    for (index, a), (_, b) in zip(ours, fresh):
        assert (a.bursts, a.churn, a.overlays) == (b.bursts, b.churn, b.overlays), index
        assert (a.routes is None) == (b.routes is None), index
        if a.routes is not None:
            for x, y in zip(a.routes, b.routes):
                assert np.array_equal(x, y), index


class StageTableMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.topology = line_topology()
        self.path = PathSegment.from_hops(self.topology.shortest_path(1, 4))
        # (first AS, last AS, client interface, server interface, protocol)
        self.watched = [(1, 4, 2, 1, Protocol.UDP)]
        self.check()  # the table is read before anything changes

    def channels(self):
        """Every channel that exists right now, in a stable order."""
        found = []
        for asn in sorted(self.topology.ases):
            for interface, peer_asn, peer_interface in self.topology.neighbors(asn):
                found.append(self.topology.link_channel(
                    asn, interface, peer_asn, peer_interface))
            interior = self.topology.autonomous_system(asn)._internal_channels
            found.extend(interior[key] for key in sorted(interior))
        return found

    def pick(self, data, having=lambda channel: True):
        """One existing channel, among those ``having`` something if any do."""
        channels = self.channels()
        channels = [c for c in channels if having(c)] or channels
        return channels[data.draw(st.integers(0, len(channels) - 1), label="channel")]

    # ------------------------------------------------------------ mutations

    @rule(data=st.data(), profile=profiles)
    def set_treatment(self, data, profile):
        self.pick(data).treatment = profile

    @rule(data=st.data(), address=st.sampled_from(ADDRESSES))
    def prioritize(self, data, address):
        self.pick(data).priority_addresses.add(address)

    @rule(data=st.data(), address=st.sampled_from(ADDRESSES))
    def deprioritize(self, data, address):
        self.pick(data).priority_addresses.discard(address)

    @rule(data=st.data(), overlay=overlays)
    def add_overlay(self, data, overlay):
        self.pick(data).add_overlay(overlay)

    @rule(data=st.data(), index=st.integers(0, 3))
    def remove_overlay(self, data, index):
        channel = self.pick(data, lambda channel: channel.overlays)
        if channel.overlays:
            channel.remove_overlay(channel.overlays[index % len(channel.overlays)])

    @rule(data=st.data(), recipe=congestion_recipes)
    def replace_congestion(self, data, recipe):
        self.pick(data).congestion = build_congestion(recipe)

    @rule(data=st.data(), start=st.floats(0.0, 50.0),
          magnitude=st.sampled_from([0.05, 0.4]))
    def inject_burst(self, data, start, magnitude):
        """On AS 2's interior this is the shared process: injected through
        one channel, read through every other."""
        self.pick(data).congestion.inject_burst(start, 20.0, magnitude)

    @rule(data=st.data())
    def clear_injected(self, data):
        channel = self.pick(data, lambda channel: channel.congestion._extra)
        channel.congestion.clear_injected()

    @rule(data=st.data(), schedule=st.lists(shifts, max_size=2))
    def replace_churn(self, data, schedule):
        self.pick(data).churn = RouteChurnProcess(schedule)

    @rule(data=st.data(), shift=shifts)
    def grow_churn(self, data, shift):
        self.pick(data).churn.add(shift)

    @rule(data=st.data(),
          name=st.sampled_from(["base_delay", "jitter_std", "bandwidth_bps"]),
          value=st.sampled_from([1e-4, 7e-3, 1e6]))
    def assign(self, data, name, value):
        setattr(self.pick(data), name, value)

    @precondition(lambda self: len(self.watched) < 6)
    @rule(first=st.sampled_from([1, 2]), last=st.sampled_from([3, 4]),
          client=st.sampled_from([2, 7]), server=st.sampled_from([1, 5]),
          protocol=st.sampled_from(PROTOCOLS))
    def watch(self, first, last, client, server, protocol):
        """A new measurement: another sub-segment, vantage interface (so an
        interior channel that did not exist) or protocol (another table)."""
        self.watched.append((first, last, client, server, protocol))

    # ------------------------------------------------------------ the check

    def extract(self, first, last, client, server, protocol):
        try:
            cell = extract_segment_cell(
                self.topology, self.path.subsegment(first, last), protocol,
                client_vantage=(first, client), server_vantage=(last, server),
                count=5, interval=1e-3, start=0.0,
            )
        except FastPathUnsupported as refusal:
            return str(refusal)
        return cell

    @invariant()
    def check(self):
        for measurement in self.watched:
            ours = self.extract(*measurement)
            kept = self.topology.stage_tables
            self.topology.stage_tables = {}
            try:
                fresh = self.extract(*measurement)
            finally:
                self.topology.stage_tables = kept
            if isinstance(fresh, str) or isinstance(ours, str):
                assert ours == fresh, measurement
                continue
            assert np.array_equal(ours.stages, fresh.stages), measurement
            same_extras(ours.extras, fresh.extras)


StageTableMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestTheTableIsNeverStale = StageTableMachine.TestCase


# ------------------------------------------------------------------ the walk


class TestTheWalk:
    """Table walk ≡ ``walk_path``: the same channel objects in the same
    order, out over the segment and back over its ``reversed()``."""

    INTERNET = generate_internet(InternetConfig(n_ases=60, seed=4))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_entries_are_walk_paths_channels(self, data):
        topology = self.INTERNET
        ases = sorted(topology.ases)
        src, dst = data.draw(st.sampled_from(ases)), data.draw(st.sampled_from(ases))
        segment = PathSegment.from_hops(topology.shortest_path(src, dst))
        asns = segment.asns()
        i = data.draw(st.integers(0, len(asns) - 1))
        j = data.draw(st.integers(i, len(asns) - 1))
        segment = segment.subsegment(asns[i], asns[j])
        client, server = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        table = StageTable(topology, Protocol.UDP, 64)
        out = [(hop.asn, hop.ingress, hop.egress) for hop in segment.hops]
        back = [(asn, egress, ingress) for asn, ingress, egress in reversed(out)]
        for _ in range(2):  # cold, then from the entries
            for hops, path, source, sink in (
                (out, segment, client, server),
                (back, segment.reversed(), server, client),
            ):
                walked = table.entries_along(hops, source, sink)
                expected = walk_path(
                    topology, path.as_list(), f"if{source}", f"if{sink}"
                )
                assert all(
                    entry.channel is channel
                    for entry, (channel, _, _) in zip(walked, expected, strict=True)
                )
