"""Network forwarding: paths, TTL, drops, stats."""

import pytest

from repro.common.errors import SimulationError
from repro.netsim import Link, Network
from repro.netsim.packet import Address, IcmpType, Packet, Protocol
from repro.netsim.topology import PathHop


class TestHostRegistration:
    def test_duplicate_address_rejected(self, two_as_network):
        _, _, net, _, _ = two_as_network
        with pytest.raises(SimulationError):
            net.make_host(1, "client")

    def test_unknown_as_rejected(self, two_as_network):
        _, _, net, _, _ = two_as_network
        with pytest.raises(SimulationError):
            net.make_host(99, "x")


class TestForwarding:
    def test_three_as_transit_delay(self, three_as_network):
        sim, _, net, client, server = three_as_network
        sock = client.open_udp(1000)
        arrivals = []
        sock.on_receive = lambda p, t: arrivals.append(t)
        sock.send(server.address, dst_port=7)
        sim.run_until_idle()
        # 4 link crossings (5 ms) + 8 internal crossings (1 ms) > 24 ms.
        assert arrivals and arrivals[0] > 24e-3

    def test_explicit_path_is_honored(self, three_as_network):
        sim, topo, net, client, server = three_as_network
        # Add a direct 1-3 link; default shortest path would use it.
        topo.connect(1, 9, 3, 9, Link.symmetric("direct", base_delay=1e-3, seed=50))
        via_as2 = [PathHop(1, None, 2), PathHop(2, 1, 2), PathHop(3, 1, None)]
        sock = client.open_udp(1000)
        arrivals = []
        sock.on_receive = lambda p, t: arrivals.append(t)
        sock.send(server.address, dst_port=7, path=via_as2)
        sim.run_until_idle()
        # The reply takes the short direct route; forward leg alone is
        # >11 ms, so RTT must exceed the direct round trip of ~6 ms.
        assert arrivals and arrivals[0] > 11e-3

    def test_unroutable_packet_dropped(self, two_as_network):
        sim, _, net, client, _ = two_as_network
        sock = client.open_udp(1000)
        sock.send(Address(2, "ghost"), dst_port=7)
        sim.run_until_idle()
        assert net.stats.drops_by_reason.get("no_such_host") == 1

    def test_stats_count_sent_and_delivered(self, two_as_network):
        sim, _, net, client, server = two_as_network
        sock = client.open_udp(1000)
        for i in range(5):
            sock.send(server.address, dst_port=7, seq=i)
        sim.run_until_idle()
        # 5 probes + 5 echoes
        assert net.stats.packets_sent == 10
        assert net.stats.packets_delivered == 10

    def test_on_drop_callback(self, two_as_network):
        sim, _, net, client, _ = two_as_network
        drops = []
        net.on_drop = lambda p, reason, t: drops.append(reason)
        sock = client.open_udp(1000)
        sock.send(Address(2, "ghost"), dst_port=7)
        sim.run_until_idle()
        assert drops == ["no_such_host"]


class TestTtl:
    def test_ttl_expiry_generates_time_exceeded(self, three_as_network):
        sim, _, net, client, server = three_as_network
        icmp = client.open_icmp()
        got = []
        icmp.on_receive = lambda p, t: got.append((p.src, p.icmp_type))
        udp = client.open_udp(1000)
        udp.send(server.address, dst_port=33434, ttl=1, seq=1)
        sim.run_until_idle()
        assert got == [(Address(1, "br2"), IcmpType.TIME_EXCEEDED)]
        assert net.stats.ttl_expiries == 1

    def test_jitter_stream_is_derived_at_the_first_expiry(
        self, three_as_network, derived_streams
    ):
        """Slow-path ICMP jitter draws from the bare ``(seed, "network")``
        stream, derived when the first time-exceeded reply is jittered."""
        sim, _, net, client, server = three_as_network
        udp = client.open_udp(1000)
        udp.send(server.address, dst_port=7, ttl=5)
        sim.run_until_idle()
        assert net._rng is None and (4, "network") not in derived_streams
        for ttl in (1, 2):  # two routers, so no rate limit intervenes
            udp.send(server.address, dst_port=33434, ttl=ttl, seq=ttl)
        sim.run_until_idle()
        assert net.stats.icmp_generated == 2
        assert derived_streams.count((4, "network")) == 1

    def test_each_border_router_decrements(self, three_as_network):
        sim, _, net, client, server = three_as_network
        icmp = client.open_icmp()
        responders = []
        icmp.on_receive = lambda p, t: responders.append(str(p.src))
        udp = client.open_udp(1000)
        for ttl in (1, 2, 3, 4):
            udp.send(server.address, dst_port=33434, ttl=ttl, seq=ttl)
        sim.run_until_idle()
        assert responders == ["1-br2", "2-br1", "2-br2", "3-br1"]

    def test_sufficient_ttl_reaches_destination(self, three_as_network):
        sim, _, net, client, server = three_as_network
        sock = client.open_udp(1000)
        got = []
        sock.on_receive = lambda p, t: got.append(p)
        sock.send(server.address, dst_port=7, ttl=5)
        sim.run_until_idle()
        assert len(got) == 1

    def test_rate_limited_router_stays_silent(self, three_as_network):
        sim, topo, net, client, server = three_as_network
        router = topo.autonomous_system(1).router(2)
        router.icmp_rate_limit = 1.0
        router._icmp_tokens = 1.0
        icmp = client.open_icmp()
        got = []
        icmp.on_receive = lambda p, t: got.append(p)
        udp = client.open_udp(1000)
        for i in range(5):  # all sent back-to-back at t=0
            udp.send(server.address, dst_port=33434, ttl=1, seq=i)
        sim.run_until_idle()
        assert len(got) == 1  # the other four exceeded the token bucket
        assert net.stats.ttl_expiries == 5

    def test_icmp_error_never_answers_icmp_error(self, three_as_network):
        sim, _, net, client, server = three_as_network
        # An ICMP TIME_EXCEEDED packet whose own TTL expires must not
        # trigger another TIME_EXCEEDED (no storms).
        packet = Packet(
            src=client.address,
            dst=server.address,
            protocol=Protocol.ICMP,
            icmp_type=IcmpType.TIME_EXCEEDED,
            ttl=1,
        )
        net.send(packet)
        sim.run_until_idle()
        assert net.stats.icmp_generated == 0

    def test_slow_path_delay_applied(self, three_as_network):
        sim, topo, _, client, server = three_as_network
        router = topo.autonomous_system(1).router(2)
        router.slow_path_delay = 50e-3
        router.slow_path_jitter = 0.0
        icmp = client.open_icmp()
        arrival = []
        icmp.on_receive = lambda p, t: arrival.append(t)
        udp = client.open_udp(1000)
        udp.send(server.address, dst_port=33434, ttl=1)
        sim.run_until_idle()
        # ~1 ms out + 50 ms punt + ~1 ms back.
        assert arrival and arrival[0] > 50e-3


class TestPinnedTrails:
    """A pinned path is expanded into its trail once per ``(src, dst,
    path)``, by value, and flushed with the default routes."""

    VIA_AS2 = [PathHop(1, None, 2), PathHop(2, 1, 2), PathHop(3, 1, None)]
    DIRECT = [PathHop(1, None, 9), PathHop(3, 9, None)]

    @pytest.fixture
    def diamond(self, three_as_network):
        sim, topo, net, client, server = three_as_network
        topo.connect(1, 9, 3, 9, Link.symmetric("direct", base_delay=1e-3, seed=50))
        net.invalidate_routes()
        builds = []
        build = net._build_trail

        def counting(packet, path):
            builds.append(path)
            return build(packet, path)

        net._build_trail = counting
        return sim, topo, net, client, server, builds

    @staticmethod
    def listen(host):
        """One-way delays of the UDP packets ``host`` receives on port 7."""
        host.echo_protocols.clear()
        delays = []
        host.open_udp(7).on_receive = lambda p, t: delays.append(t - p.send_time)
        return delays

    def one_way_delays(self, sim, client, server, paths):
        """Arrival delay at the server of one UDP packet per path."""
        delays = self.listen(server)
        sock = client.open_udp(1000)
        for path in paths:
            sock.send(server.address, dst_port=7, path=path)
            sim.run_until_idle()
        return delays

    def test_a_train_on_one_pinned_path_builds_one_trail(self, diamond):
        sim, _, net, client, server, builds = diamond
        delays = self.one_way_delays(
            sim, client, server, [list(self.VIA_AS2) for _ in range(5)]
        )
        assert len(delays) == 5 and len(builds) == 1

    def test_two_pinned_paths_between_one_pair_get_their_own_trails(self, diamond):
        sim, _, net, client, server, builds = diamond
        long, short, again, default = self.one_way_delays(
            sim, client, server, [self.VIA_AS2, self.DIRECT, self.VIA_AS2, None]
        )
        assert long > 11e-3 > 4e-3 > short
        assert again > 11e-3 and default < 4e-3
        assert builds == [self.VIA_AS2, self.DIRECT, None]

    def test_mutating_the_path_after_send_does_not_alias_the_trail(self, diamond):
        sim, _, net, client, server, builds = diamond
        path = list(self.VIA_AS2)
        arrivals = self.listen(server)
        sock = client.open_udp(1000)
        sock.send(server.address, dst_port=7, path=path)
        path[:] = self.DIRECT  # the caller reuses its list for another route
        sock.send(server.address, dst_port=7, path=path)
        sim.run_until_idle()
        sock.send(server.address, dst_port=7, path=list(self.VIA_AS2))
        sim.run_until_idle()
        short, long, long_again = sorted(arrivals)
        assert short < 4e-3 and 11e-3 < long and 11e-3 < long_again
        assert len(builds) == 2

    def test_add_host_flushes_pinned_trails_too(self, diamond):
        sim, _, net, client, _, builds = diamond
        late = Address(3, "late")
        sock = client.open_udp(1000)
        sock.send(late, dst_port=7, path=self.VIA_AS2)
        sim.run_until_idle()
        assert net.stats.drops_by_reason == {"no_such_host": 1}
        # Co-located with the ingress interface: no interior crossing left.
        arrivals = self.listen(net.make_host(3, "late", attachment="if1"))
        sock.send(late, dst_port=7, path=self.VIA_AS2)
        sim.run_until_idle()
        assert len(builds) == 2
        interior = client.network.topology.autonomous_system(3).internal_channel(
            "if1", "interior"
        )
        assert arrivals and interior.packets_in == 1  # only the first attempt

    def test_an_unroutable_pinned_path_is_dropped_every_time_and_never_cached(
        self, diamond
    ):
        sim, _, net, client, server, builds = diamond
        wrong_end = [PathHop(1, None, 2), PathHop(2, 1, None)]
        no_such_link = [PathHop(1, None, 2), PathHop(3, 1, None)]
        sock = client.open_udp(1000)
        for path in (wrong_end, no_such_link, wrong_end, no_such_link):
            sock.send(server.address, dst_port=7, path=path)
        sim.run_until_idle()
        assert net.stats.drops_by_reason == {"unroutable": 4}
        assert net.stats.packets_delivered == 0
        assert len(builds) == 4 and not net._trail_cache
