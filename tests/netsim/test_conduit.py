"""Directed channels: delays, drops, overlays, per-protocol ECMP."""

import numpy as np
import pytest

from repro.common.rng import derive_rng
from repro.netsim.conduit import (
    DRAW_BLOCK,
    ChannelDraws,
    DirectedChannel,
    FaultOverlay,
    Link,
)
from repro.netsim.congestion import CongestionConfig, CongestionProcess, calm_congestion
from repro.netsim.ecmp import EcmpGroup, HashGranularity, Route
from repro.netsim.packet import Address, Packet, Protocol
from repro.netsim.routechurn import RouteChurnProcess, RouteShift
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile
from tests.netsim.outcome import outcome


def _packet(protocol=Protocol.UDP, seq=0, size=64):
    return Packet(
        src=Address(1, "a"),
        dst=Address(2, "b"),
        protocol=protocol,
        size=size,
        src_port=1000,
        dst_port=7,
        seq=seq,
    )


def _quiet_channel(**kwargs) -> DirectedChannel:
    defaults = dict(
        base_delay=5e-3,
        congestion=calm_congestion(1, "test"),
        seed=2,
    )
    defaults.update(kwargs)
    return DirectedChannel("test", **defaults)


class TestBasicTransit:
    def test_delay_at_least_propagation(self):
        channel = _quiet_channel()
        result = outcome(channel, _packet(), 0.0)
        assert result.delivered
        assert result.delay >= 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            DirectedChannel("bad", base_delay=-1.0)
        with pytest.raises(ValueError):
            DirectedChannel("bad", base_delay=0.0, bandwidth_bps=0.0)

    def test_transmission_time_scales_with_size(self):
        channel = _quiet_channel(bandwidth_bps=1e6)
        small = channel.transmission_time(100)
        large = channel.transmission_time(1000)
        assert large == pytest.approx(10 * small)

    def test_deterministic_given_seed(self):
        a = _quiet_channel(jitter_std=1e-3, seed=9)
        b = _quiet_channel(jitter_std=1e-3, seed=9)
        delays_a = [outcome(a, _packet(seq=i), float(i)).delay for i in range(20)]
        delays_b = [outcome(b, _packet(seq=i), float(i)).delay for i in range(20)]
        assert delays_a == delays_b


    def test_channel_no_packet_crosses_builds_no_stream(self, derived_streams):
        """Construction derives nothing — not the channel's streams, not its
        calm congestion process's; the first packet derives the streams of
        the kinds it draws (a queue gamma, then a jitter normal) and no
        other (no drop probability, no uniform), and its draws are those of
        eagerly built streams."""
        link = Link.symmetric("idle", base_delay=1e-3, jitter_std=1e-4, seed=9)
        assert derived_streams == []
        delay = outcome(link.forward, _packet(), 0.0).delay
        assert derived_streams == [
            (9, "channel", "idle/fwd", "gamma", 2.0),
            (9, "channel", "idle/fwd", "normal"),
        ]
        assert link.reverse._draws is None
        eager = DirectedChannel("idle/fwd", base_delay=1e-3, jitter_std=1e-4, seed=9)
        eager._draws = ChannelDraws(9, "idle/fwd")
        for kind in (("uniform",), ("normal",), ("gamma", 2.0)):
            eager._draws.streams[kind] = derive_rng(9, "channel", "idle/fwd", *kind)
        assert delay == outcome(eager, _packet(), 0.0).delay
        assert eager._draws.drawn == {("normal",): DRAW_BLOCK, ("gamma", 2.0): DRAW_BLOCK}


class TestSelfQueueing:
    def test_back_to_back_packets_queue(self):
        channel = _quiet_channel(bandwidth_bps=1e6)  # 1 Mbps: 1500B = 12 ms
        first = outcome(channel, _packet(size=1500), 0.0)
        second = outcome(channel, _packet(size=1500), 0.0)
        assert second.delay > first.delay

    def test_priority_class_skips_bulk_backlog(self):
        profile = TreatmentProfile(
            treatments={Protocol.ICMP: ProtocolTreatment(priority=True)}
        )
        channel = _quiet_channel(bandwidth_bps=1e6, treatment=profile)
        outcome(channel, _packet(size=1500), 0.0)  # builds bulk backlog
        outcome(channel, _packet(size=1500), 0.0)
        icmp = outcome(channel, _packet(protocol=Protocol.ICMP, size=100), 0.0)
        bulk = outcome(channel, _packet(size=100), 0.0)
        assert icmp.delay < bulk.delay


class TestDrops:
    def test_base_drop_rate_observed(self):
        profile = TreatmentProfile(default=ProtocolTreatment(base_drop=0.2))
        channel = _quiet_channel(treatment=profile)
        outcomes = [outcome(channel, _packet(seq=i), 0.0) for i in range(3000)]
        loss = sum(1 for o in outcomes if not o.delivered) / len(outcomes)
        assert 0.15 < loss < 0.25
        assert channel.loss_fraction == pytest.approx(loss)

    def test_congestion_drop_multiplier(self):
        config = CongestionConfig(
            base_utilization=0.9,
            diurnal_amplitude=0.0,
            burst_rate=0.0,
            drop_threshold=0.5,
            drop_scale=0.5,
        )
        profile = TreatmentProfile(
            treatments={
                Protocol.TCP: ProtocolTreatment(drop_multiplier=6.0),
                Protocol.ICMP: ProtocolTreatment(drop_multiplier=0.0),
            }
        )
        channel = _quiet_channel(
            congestion=CongestionProcess(config, seed=3), treatment=profile
        )
        tcp_losses = sum(
            1
            for i in range(2000)
            if not outcome(channel, _packet(Protocol.TCP, seq=i), 0.0).delivered
        )
        icmp_losses = sum(
            1
            for i in range(2000)
            if not outcome(channel, _packet(Protocol.ICMP, seq=i), 0.0).delivered
        )
        assert tcp_losses > 100
        assert icmp_losses == 0

    def test_drop_reason_reported(self):
        profile = TreatmentProfile(default=ProtocolTreatment(base_drop=1.0))
        channel = _quiet_channel(treatment=profile)
        result = outcome(channel, _packet(), 0.0)
        assert not result.delivered
        assert result.drop_reason == "loss"


class TestOverlays:
    def test_blackhole_drops_everything(self):
        channel = _quiet_channel()
        channel.add_overlay(FaultOverlay(start=0.0, end=10.0, blackhole=True))
        assert outcome(channel, _packet(), 5.0).drop_reason == "blackhole"
        assert outcome(channel, _packet(), 15.0).delivered

    def test_extra_delay_overlay(self):
        channel = _quiet_channel()
        clean = outcome(channel, _packet(), 0.0).delay
        channel.add_overlay(FaultOverlay(start=0.0, end=10.0, extra_delay=20e-3))
        faulty = outcome(channel, _packet(), 5.0).delay
        assert faulty == pytest.approx(clean + 20e-3, abs=1e-3)

    def test_protocol_scoped_overlay(self):
        channel = _quiet_channel()
        channel.add_overlay(
            FaultOverlay(
                start=0.0, end=10.0, extra_loss=1.0,
                protocols=frozenset({Protocol.TCP}),
            )
        )
        assert not outcome(channel, _packet(Protocol.TCP), 1.0).delivered
        assert outcome(channel, _packet(Protocol.UDP), 1.0).delivered

    def test_remove_overlay(self):
        channel = _quiet_channel()
        overlay = FaultOverlay(start=0.0, end=10.0, blackhole=True)
        channel.add_overlay(overlay)
        channel.remove_overlay(overlay)
        assert outcome(channel, _packet(), 5.0).delivered

    def test_remove_overlay_is_by_identity(self):
        """Equal (frozen) overlays are different faults: the one asked for
        goes, wherever it sits, and one that is not on the channel raises
        even when its equal is."""
        channel = _quiet_channel()
        first = FaultOverlay(start=0.0, end=10.0, blackhole=True)
        twin = FaultOverlay(start=0.0, end=10.0, blackhole=True)
        assert first == twin and first is not twin
        channel.add_overlay(first)
        channel.add_overlay(twin)
        channel.remove_overlay(twin)
        assert len(channel.overlays) == 1 and channel.overlays[0] is first
        with pytest.raises(ValueError, match="not on channel"):
            channel.remove_overlay(twin)
        assert channel.overlays[0] is first

    def test_every_caller_side_change_moves_the_state_stamp(self):
        """What a packed stage row is read from cannot change without the
        stamp changing; a packet crossing the channel changes neither."""
        channel = _quiet_channel()
        overlay = FaultOverlay(start=0.0, end=10.0, extra_delay=1e-3)
        seen = {channel.state_stamp()}
        for change in (
            lambda: setattr(channel, "treatment", TreatmentProfile.uniform()),
            lambda: setattr(channel, "base_delay", 6e-3),
            lambda: setattr(channel, "jitter_std", 1e-4),
            lambda: setattr(channel, "bandwidth_bps", 1e6),
            lambda: channel.add_overlay(overlay),
            lambda: channel.remove_overlay(overlay),
            lambda: channel.congestion.inject_burst(0.0, 5.0, 0.2),
            lambda: channel.congestion.clear_injected(),
            lambda: setattr(channel, "congestion", calm_congestion(3, "other")),
            lambda: channel.churn.add(RouteShift(0.0, 5.0, 1e-3)),
            lambda: setattr(channel, "churn", RouteChurnProcess([])),
        ):
            change()
            stamp = channel.state_stamp()
            assert stamp not in seen
            seen.add(stamp)
            outcome(channel, _packet(), 1.0)
            assert channel.state_stamp() == stamp
        assert (channel.base_delay, channel.jitter_std, channel.bandwidth_bps) == (
            6e-3, 1e-4, 1e6)


class TestPerProtocolEcmp:
    def test_udp_group_does_not_affect_other_protocols(self):
        udp_group = EcmpGroup([Route(5e-3), Route(10e-3)])
        profile = TreatmentProfile(
            treatments={
                Protocol.UDP: ProtocolTreatment(
                    ecmp_granularity=HashGranularity.PER_PACKET
                )
            }
        )
        channel = _quiet_channel(ecmp={Protocol.UDP: udp_group}, treatment=profile)
        icmp_delay = outcome(channel, _packet(Protocol.ICMP), 0.0).delay
        assert icmp_delay < 6e-3  # no route offset applied
        udp_delays = {
            round(outcome(channel, _packet(seq=i), 0.0).delay, 4) for i in range(50)
        }
        assert len(udp_delays) == 2  # both routes exercised

    def test_shared_group_applies_to_all(self):
        group = EcmpGroup([Route(5e-3)])
        channel = _quiet_channel(ecmp=group)
        assert outcome(channel, _packet(Protocol.ICMP), 0.0).delay >= 10e-3


class TestPriorityAddresses:
    def test_priority_addresses_bypass_congestion(self):
        config = CongestionConfig(
            base_utilization=0.9, diurnal_amplitude=0.0, burst_rate=0.0,
            queue_service_time=2e-3,
        )
        channel = _quiet_channel(congestion=CongestionProcess(config, seed=4))
        normal = np.mean([outcome(channel, _packet(seq=i), 0.0).delay for i in range(200)])
        channel.priority_addresses.add(Address(1, "a"))
        prioritized = np.mean(
            [outcome(channel, _packet(seq=i), 0.0).delay for i in range(200)]
        )
        assert prioritized < normal


class TestLink:
    def test_symmetric_link_directions_independent_state(self):
        link = Link.symmetric("x", base_delay=1e-3, seed=1, jitter_std=0.2e-3)
        fwd = outcome(link.channel("forward"), _packet(), 0.0).delay
        rev = outcome(link.channel("reverse"), _packet(), 0.0).delay
        assert fwd != rev  # independent RNG streams

    def test_unknown_direction_rejected(self):
        link = Link.symmetric("x", base_delay=1e-3)
        with pytest.raises(ValueError):
            link.channel("sideways")
