"""Fault injection and ground truth."""


from repro.netsim import FaultInjector, FaultKind, FaultLocation, InterfaceId, Protocol
from repro.netsim.fastpath import extract_segment_cell
from repro.netsim.packet import Address, Packet
from repro.pathaware.segments import PathSegment


def _probe(seq=0):
    return Packet(
        src=Address(1, "a"), dst=Address(3, "b"), protocol=Protocol.UDP,
        src_port=1, dst_port=2, seq=seq,
    )


class TestLinkFaults:
    def test_blackhole_affects_both_directions(self, three_as_network):
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        injector.link_blackhole(
            InterfaceId(1, 2), InterfaceId(2, 1), start=0.0, end=100.0
        )
        fwd = topo.channel_between(InterfaceId(1, 2), InterfaceId(2, 1))
        rev = topo.channel_between(InterfaceId(2, 1), InterfaceId(1, 2))
        assert not fwd.transit(_probe(), 1.0).delivered
        assert not rev.transit(_probe(), 1.0).delivered

    def test_directional_fault(self, three_as_network):
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        injector.link_loss(
            InterfaceId(1, 2), InterfaceId(2, 1),
            loss=1.0, start=0.0, end=100.0, directions="forward",
        )
        fwd = topo.channel_between(InterfaceId(1, 2), InterfaceId(2, 1))
        rev = topo.channel_between(InterfaceId(2, 1), InterfaceId(1, 2))
        assert not fwd.transit(_probe(), 1.0).delivered
        assert rev.transit(_probe(), 1.0).delivered

    def test_delay_fault_records_ground_truth(self, three_as_network):
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        fault = injector.link_delay(
            InterfaceId(2, 2), InterfaceId(3, 1),
            extra_delay=30e-3, start=5.0, end=50.0,
        )
        assert fault.kind is FaultKind.DELAY
        assert fault.location.link == (InterfaceId(2, 2), InterfaceId(3, 1))
        assert fault.start == 5.0 and fault.end == 50.0
        assert fault.magnitude == 30e-3

    def test_fault_inactive_outside_window(self, three_as_network):
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        injector.link_blackhole(
            InterfaceId(1, 2), InterfaceId(2, 1), start=10.0, end=20.0
        )
        fwd = topo.channel_between(InterfaceId(1, 2), InterfaceId(2, 1))
        assert fwd.transit(_probe(), 5.0).delivered
        assert not fwd.transit(_probe(), 15.0).delivered
        assert fwd.transit(_probe(), 25.0).delivered


class TestInteriorFaults:
    def test_internal_delay_hits_transit_traffic(self, three_as_network):
        sim, topo, net, client, server = three_as_network
        injector = FaultInjector(topo)
        injector.as_internal_delay(2, extra_delay=40e-3, start=0.0, end=1e9)
        sock = client.open_udp(1000)
        arrivals = []
        sock.on_receive = lambda p, t: arrivals.append(t)
        sock.send(server.address, dst_port=7)
        sim.run_until_idle()
        # Both directions traverse AS2's interior: +80 ms total.
        assert arrivals and arrivals[0] > 100e-3

    def test_interior_location_string(self):
        location = FaultLocation(asn=7)
        assert "AS 7" in str(location)


class TestRevocation:
    def test_revoke_restores_channel(self, three_as_network):
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        fault = injector.link_blackhole(
            InterfaceId(1, 2), InterfaceId(2, 1), start=0.0, end=1e9
        )
        fault.revoke()
        fwd = topo.channel_between(InterfaceId(1, 2), InterfaceId(2, 1))
        assert fwd.transit(_probe(), 1.0).delivered

    def test_revoke_all(self, three_as_network):
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        injector.link_blackhole(InterfaceId(1, 2), InterfaceId(2, 1), start=0.0, end=1e9)
        injector.as_internal_loss(2, loss=1.0, start=0.0, end=1e9)
        injector.revoke_all()
        assert injector.injected == []
        fwd = topo.channel_between(InterfaceId(1, 2), InterfaceId(2, 1))
        assert fwd.transit(_probe(), 1.0).delivered

    def test_double_revoke_leaves_twin_fault_active(self, three_as_network):
        """Regression: revoking the same fault twice must not strip a
        *different* fault's overlay. Two faults built from identical
        parameters carry equal (frozen) overlays, so an equality-based
        removal on the second revoke used to silently restore stale
        channel parameters."""
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        first = injector.link_blackhole(
            InterfaceId(1, 2), InterfaceId(2, 1), start=0.0, end=1e9
        )
        twin = injector.link_blackhole(
            InterfaceId(1, 2), InterfaceId(2, 1), start=0.0, end=1e9
        )
        first.revoke()
        first.revoke()  # second revoke must be a no-op
        assert first.revoked and not twin.revoked
        fwd = topo.channel_between(InterfaceId(1, 2), InterfaceId(2, 1))
        # The twin fault is still in force.
        assert not fwd.transit(_probe(), 1.0).delivered
        twin.revoke()
        assert fwd.transit(_probe(), 1.0).delivered

    def test_revoke_all_then_stale_handle_revoke_is_noop(self, three_as_network):
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        stale = injector.link_loss(
            InterfaceId(1, 2), InterfaceId(2, 1), loss=1.0, start=0.0, end=1e9
        )
        injector.revoke_all()
        survivor = injector.link_loss(
            InterfaceId(1, 2), InterfaceId(2, 1), loss=1.0, start=0.0, end=1e9
        )
        stale.revoke()  # handle kept from before revoke_all: must not fire
        fwd = topo.channel_between(InterfaceId(1, 2), InterfaceId(2, 1))
        assert not fwd.transit(_probe(), 1.0).delivered
        survivor.revoke()
        assert fwd.transit(_probe(), 1.0).delivered

    def test_revoking_one_of_two_equal_faults_leaves_the_others_object(
        self, three_as_network
    ):
        """Same parameters, equal frozen overlays: what remains on the
        channel after revoking the first is the twin's own object."""
        _, topo, _, _, _ = three_as_network
        injector = FaultInjector(topo)
        ends = (InterfaceId(1, 2), InterfaceId(2, 1))
        first = injector.link_loss(*ends, loss=0.5, start=0.0, end=1e9)
        twin = injector.link_loss(*ends, loss=0.5, start=0.0, end=1e9)
        (_, first_overlay), (_, twin_overlay) = first.overlays[0], twin.overlays[0]
        assert first_overlay == twin_overlay and first_overlay is not twin_overlay
        first.revoke()
        for channel, overlay in twin.overlays:
            assert len(channel.overlays) == 1 and channel.overlays[0] is overlay

    def test_a_revoke_is_seen_by_the_next_extraction(self, three_as_network):
        """The vectorized path reads channels through a long-lived table:
        a fault revoked after the table was read is gone from the next cell."""
        _, topo, _, _, _ = three_as_network
        segment = PathSegment.from_hops(topo.shortest_path(1, 3))

        def overlays_carried():
            cell = extract_segment_cell(
                topo, segment, Protocol.UDP, client_vantage=(1, 2),
                server_vantage=(3, 1), count=5, interval=1e-3, start=0.0,
            )
            return sum(len(extras.overlays) for _, extras in cell.extras)

        assert overlays_carried() == 0
        injector = FaultInjector(topo)
        fault = injector.link_delay(
            InterfaceId(1, 2), InterfaceId(2, 1), extra_delay=5e-3, start=0.0, end=1e9
        )
        assert overlays_carried() == 2  # out over the link and back
        fault.revoke()
        assert overlays_carried() == 0
