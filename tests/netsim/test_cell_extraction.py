"""Cell extraction: one packed row per channel traversal.

A row must hold, field by field, what :meth:`DirectedChannel.transit` would
read for the same packet — ``transit_reads`` below spells that out from
``conduit.py``, sharing no code with ``fastpath._stage_from_channel`` — and
the ragged extras must sit on exactly the stages whose channel has them.
(The *arithmetic* on those fields is ROADMAP item 5(d): the scalar
``transit`` against the kept vector reference, term by term.)
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.fastprobe import FastSegmentProber
from repro.netsim import fastpath
from repro.netsim.conduit import FaultOverlay
from repro.netsim.congestion import CongestionConfig, CongestionProcess
from repro.netsim.ecmp import EcmpGroup, HashGranularity, Route
from repro.netsim.fastpath import (
    FastPathUnsupported,
    OverlayWindow,
    StageExtras,
    extract_probe_cell,
    extract_segment_cell,
    simulate_cell_arrays,
)
from repro.netsim.network import walk_path
from repro.netsim.packet import Address, Packet, Protocol
from repro.netsim.routechurn import RouteChurnProcess, RouteShift
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile
from repro.pathaware.discovery import PathRegistry
from repro.pathaware.segments import PathSegment
from repro.workloads.wan import WanScenario
from repro.workloads.wanbench import build_continent, run_campaign, small_config
from tests.netsim.cell_golden import cell_over, chain, handbuilt_cells, link_channels
from tests.properties.test_prop_cell_kernel import assert_same_arrays

CLIENT, SERVER = (1, 2), (3, 1)
ROUTES = [Route(0.0, jitter=0.1e-3), Route(1e-3, jitter=0.3e-3, weight=2.0),
          Route(2.5e-3), Route(4e-3, jitter=0.2e-3, weight=0.5)]


def transit_reads(channel, packet):
    """The numbers ``channel.transit(packet, t)`` works from, by column."""
    treatment = channel.treatment.for_protocol(packet.protocol)
    if channel.priority_addresses and (
        packet.src in channel.priority_addresses
        or packet.dst in channel.priority_addresses
    ):
        treatment = replace(treatment, priority=True, drop_multiplier=0.0)
    ecmp = channel.ecmp_for(packet.protocol)
    route = ecmp.route(ecmp.select(packet, 0.0, treatment.ecmp_granularity))
    config = channel.congestion.config
    return {
        fastpath.UTILIZATION: config.base_utilization,
        fastpath.AMPLITUDE: config.diurnal_amplitude,
        fastpath.PHASE: config.diurnal_phase,
        fastpath.SERVICE_TIME: config.queue_service_time,
        fastpath.QUEUE_SHAPE: config.queue_shape,
        fastpath.BACKLOG_FRACTION: (
            config.priority_backlog_fraction if treatment.priority else 1.0
        ),
        fastpath.DROP_THRESHOLD: config.drop_threshold,
        fastpath.DROP_SCALE: config.drop_scale,
        fastpath.BASE_DROP: treatment.base_drop,
        fastpath.DROP_MULTIPLIER: treatment.drop_multiplier,
        fastpath.FIXED_DELAY: (
            channel.base_delay + channel.transmission_time(packet.size)
        ),
        fastpath.ROUTE_OFFSET: route.delay_offset,
        fastpath.EXTRA_DELAY: treatment.extra_delay,
        fastpath.JITTER_SCALE: (
            channel.jitter_std + treatment.extra_jitter + route.jitter
        ),
    }


def round_trip(topology, protocol, size=64):
    """``(channel, packet)`` per traversal of the 1 -> 3 -> 1 echo."""
    segment = PathRegistry(topology).shortest(1, 3)
    probe = Packet(src=Address(1, "exec2"), dst=Address(3, "exec1"),
                   protocol=protocol, size=size, dst_port=7)
    out = walk_path(topology, segment.as_list(), "if2", "if1")
    back = walk_path(topology, segment.reversed().as_list(), "if1", "if2")
    return [(channel, probe) for channel, _, _ in out] + [
        (channel, probe.reply_to()) for channel, _, _ in back
    ]


def extract(topology, protocol=Protocol.UDP, size=64):
    return cell_over(topology, "unit", protocol, count=10, interval=5e-3, size=size)


def assert_rows_match_transit(topology, protocol, size=64):
    cell = extract(topology, protocol, size)
    traversals = round_trip(topology, protocol, size)
    assert cell.stages.shape == (len(traversals), fastpath.STAGE_WIDTH)
    assert cell.stages.dtype == np.float64
    for index, (channel, packet) in enumerate(traversals):
        expected = transit_reads(channel, packet)
        assert len(expected) == fastpath.STAGE_WIDTH
        for column, value in expected.items():
            assert cell.stages[index, column] == value, (channel.name, column)
    return cell


class TestPackedRow:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_default_channels(self, protocol):
        cell = assert_rows_match_transit(chain(), protocol)
        assert len(cell.stages) == 10 and cell.extras == ()

    @pytest.mark.parametrize("size", [1, 64, 1500])
    def test_transmission_time_follows_packet_size(self, size):
        assert_rows_match_transit(chain(bandwidth_bps=1e6), Protocol.UDP, size)

    @pytest.mark.parametrize(
        "granularity",
        [HashGranularity.SINGLE, HashGranularity.PER_FLOW, HashGranularity.PER_DEST],
    )
    @pytest.mark.parametrize("salt", range(4))
    def test_fixed_route_is_the_one_select_picks(self, granularity, salt):
        """Probe and reply hash differently; the next test checks that the
        salts do land on routes other than the first."""
        topology = chain(
            ecmp=EcmpGroup(ROUTES, salt=salt),
            jitter_std=0.05e-3,
            treatment=TreatmentProfile.uniform(
                ProtocolTreatment(ecmp_granularity=granularity, extra_jitter=1e-5)
            ),
        )
        for protocol in (Protocol.UDP, Protocol.ICMP):
            cell = assert_rows_match_transit(topology, protocol)
            assert cell.extras == ()

    def test_some_salt_picks_a_route_other_than_the_first(self):
        offsets = set()
        for salt in range(4):
            topology = chain(ecmp=EcmpGroup(ROUTES, salt=salt))
            offsets.update(extract(topology).stages[:, fastpath.ROUTE_OFFSET])
        assert len(offsets) > 2

    def test_per_protocol_treatment_and_ecmp_groups(self):
        profile = TreatmentProfile(
            treatments={
                Protocol.ICMP: ProtocolTreatment(
                    priority=True, ecmp_granularity=HashGranularity.SINGLE),
                Protocol.TCP: ProtocolTreatment(
                    drop_multiplier=6.0, base_drop=0.01, extra_delay=0.2e-3,
                    extra_jitter=0.03e-3),
            },
            default=ProtocolTreatment(base_drop=2e-4),
        )
        congestion = CongestionProcess(
            CongestionConfig(base_utilization=0.4, diurnal_amplitude=0.1,
                             diurnal_phase=0.7, burst_rate=0.0, queue_shape=3,
                             priority_backlog_fraction=0.2),
            seed=1,
        )
        topology = chain(
            treatment=profile,
            congestion=congestion,
            ecmp={Protocol.TCP: EcmpGroup(ROUTES, salt=2),
                  None: EcmpGroup(ROUTES[:2], salt=1)},
        )
        for protocol in Protocol:
            assert_rows_match_transit(topology, protocol)
        icmp = extract(topology, Protocol.ICMP).stages[3]
        assert icmp[fastpath.BACKLOG_FRACTION] == 0.2
        assert icmp[fastpath.QUEUE_SHAPE] == 3.0

    def test_priority_address_rewrites_the_treatment(self):
        hostile = TreatmentProfile.uniform(ProtocolTreatment(drop_multiplier=6.0))
        topology = chain(treatment=hostile)
        forward, reverse = link_channels(topology)
        forward.priority_addresses.add(Address(1, "exec2"))  # the probe's source
        reverse.priority_addresses.add(Address(9, "exec9"))  # nobody on this path
        cell = assert_rows_match_transit(topology, Protocol.UDP)
        config = forward.congestion.config
        assert cell.stages[3, fastpath.DROP_MULTIPLIER] == 0.0
        assert cell.stages[3, fastpath.BACKLOG_FRACTION] == (
            config.priority_backlog_fraction
        )
        assert cell.stages[6, fastpath.DROP_MULTIPLIER] == 6.0
        assert cell.stages[6, fastpath.BACKLOG_FRACTION] == 1.0


UDP_ONLY = frozenset({Protocol.UDP})
TCP_ONLY = frozenset({Protocol.TCP})


class TestExtras:
    def test_only_the_stages_that_have_them(self):
        topology = chain()
        forward, reverse = link_channels(topology)
        forward.add_overlay(FaultOverlay(1.0, 2.0, extra_delay=5e-3, extra_jitter=1e-3))
        forward.add_overlay(FaultOverlay(3.0, 4.0, extra_loss=0.5, protocols=TCP_ONLY))
        forward.add_overlay(FaultOverlay(5.0, 6.0, blackhole=True, protocols=UDP_ONLY))
        reverse.churn = RouteChurnProcess([
            RouteShift(0.0, 9.0, 2e-3),
            RouteShift(1.0, 2.0, 3e-3, TCP_ONLY),
        ])
        interior = topology.autonomous_system(2).internal_channel("if2", "if1")
        interior.congestion.inject_burst(4.0, 2.0, 0.3)

        cell = extract(topology, Protocol.UDP)
        # 3: link 2-3 forward; 6: link 3-2; 7: AS2's interior on the way back.
        assert [index for index, _ in cell.extras] == [3, 6, 7]
        by_stage = dict(cell.extras)
        assert by_stage[3] == StageExtras(overlays=(
            OverlayWindow(1.0, 2.0, extra_delay=5e-3, extra_jitter=1e-3),
            OverlayWindow(5.0, 6.0, blackhole=True),
        ))
        assert by_stage[6] == StageExtras(churn=((0.0, 9.0, 2e-3),))
        assert by_stage[7] == StageExtras(bursts=((4.0, 6.0, 0.3),))

        tcp = dict(extract(topology, Protocol.TCP).extras)
        assert [o.extra_loss for o in tcp[3].overlays] == [0.0, 0.5]
        assert tcp[6].churn == ((0.0, 9.0, 2e-3), (1.0, 2.0, 3e-3))

    def test_a_filter_that_leaves_nothing_leaves_no_extras(self):
        topology = chain(churn=RouteChurnProcess([RouteShift(0.0, 9.0, 2e-3, TCP_ONLY)]))
        for channel in link_channels(topology):
            channel.add_overlay(FaultOverlay(0.0, 9.0, blackhole=True, protocols=TCP_ONLY))
        assert extract(topology, Protocol.UDP).extras == ()
        assert [index for index, _ in extract(topology, Protocol.TCP).extras] == [3, 6]

    def test_natural_bursts_come_before_injected_ones(self):
        congestion = CongestionProcess(
            CongestionConfig(burst_rate=1 / 50.0), seed=3, horizon=400.0
        )
        congestion.inject_burst(10.0, 5.0, 0.25)
        topology = chain(congestion=congestion)
        extras = dict(extract(topology).extras)[3]
        natural = [(b.start, b.end, b.magnitude) for b in congestion._bursts]
        assert natural and extras.bursts == (*natural, (10.0, 15.0, 0.25))

    def test_the_cell_and_transit_read_the_same_utilization_under_dense_bursts(self):
        """The row takes *every* burst; ``transit`` reads ``utilization(t)``.
        With more than 64 bursts starting inside a longer one, the event
        engine used to forget the long one and the two engines disagreed on
        exactly the congested channels."""
        congestion = CongestionProcess(
            CongestionConfig(
                base_utilization=0.05, diurnal_amplitude=0.02,
                burst_rate=1 / 2.0, burst_mean_duration=150.0,
                burst_magnitude_range=(0.001, 0.003),
            ),
            seed=3, horizon=400.0,
        )
        topology = chain(congestion=congestion)
        cell = extract(topology)
        row, windows = cell.stages[3], dict(cell.extras)[3].bursts
        assert len(windows) == len(congestion._bursts) > 150

        def cell_utilization(t):
            value = row[fastpath.UTILIZATION] + row[fastpath.AMPLITUDE] * np.sin(
                2.0 * np.pi * t / 86400.0 + row[fastpath.PHASE]
            )
            for start, end, magnitude in windows:
                if start <= t < end:
                    value += magnitude
            return value

        for t in np.arange(150.0, 400.0, 2.5):
            overlapping = sum(1 for start, end, _ in windows if start <= t < end)
            assert overlapping > 40
            assert congestion.utilization(float(t)) == pytest.approx(
                cell_utilization(t), rel=1e-12
            )

    def test_per_packet_ecmp_carries_the_route_table(self):
        topology = chain(
            ecmp=EcmpGroup(ROUTES),
            jitter_std=0.05e-3,
            treatment=TreatmentProfile.uniform(ProtocolTreatment(
                ecmp_granularity=HashGranularity.PER_PACKET, extra_jitter=1e-5)),
        )
        cell = extract(topology)
        assert [index for index, _ in cell.extras] == [3, 6]
        for index, extras in cell.extras:
            cumulative, offsets, jitters = extras.routes
            group = link_channels(topology)[0].ecmp_for(Protocol.UDP)
            assert cumulative.tolist() == group._cumulative
            assert offsets.tolist() == [route.delay_offset for route in ROUTES]
            assert jitters.tolist() == [route.jitter for route in ROUTES]
            # The row keeps the channel's own jitter; routes add theirs per probe.
            assert cell.stages[index, fastpath.ROUTE_OFFSET] == 0.0
            assert cell.stages[index, fastpath.JITTER_SCALE] == 0.05e-3 + 1e-5

    def test_one_route_is_never_sprayed(self):
        topology = chain(treatment=TreatmentProfile.uniform(
            ProtocolTreatment(ecmp_granularity=HashGranularity.PER_PACKET)))
        assert extract(topology).extras == ()


class TestTheTable:
    def test_a_campaign_reads_each_channel_once(self, monkeypatch):
        """The count behind "extraction costs per channel state, not per
        traversal": over a 40-episode campaign ``_stage_from_channel`` runs
        once per distinct table key, a fraction of the traversals."""
        reads, traversals = [], []
        read, build = fastpath._stage_from_channel, FastSegmentProber.build_cell

        def counting_read(channel, packet):
            reads.append(channel)
            return read(channel, packet)

        def counting_build(self, *args, **kwargs):
            cell = build(self, *args, **kwargs)
            traversals.append(len(cell.stages))
            return cell

        monkeypatch.setattr(fastpath, "_stage_from_channel", counting_read)
        monkeypatch.setattr(FastSegmentProber, "build_cell", counting_build)
        scenario = build_continent(small_config(episodes=40))
        outcome = run_campaign(scenario)
        (table,) = scenario.topology.stage_tables.values()
        assert len(traversals) == outcome.measurements
        assert len(reads) == len(set(reads)) == len(table._entries)
        assert 3 * len(reads) < sum(traversals)

    def test_a_stale_row_is_reread_in_place(self):
        topology = chain()
        before = extract(topology)
        (table,) = topology.stage_tables.values()
        stages = len(table._entries)
        forward, _ = link_channels(topology)
        forward.base_delay = 9e-3
        after = extract(topology)
        assert len(table._entries) == stages  # same entry, same stage id
        assert after.stages[3, fastpath.FIXED_DELAY] == 9e-3 + forward.transmission_time(64)
        assert before.stages[3, fastpath.FIXED_DELAY] != after.stages[3, fastpath.FIXED_DELAY]
        changed = before.stages != after.stages
        assert changed.sum() == 1  # and the cell cut earlier kept its copy

    def test_a_refused_cell_tables_nothing_it_did_not_finish(self):
        """Flowlet ECMP on the second link: the cell is refused on every
        visit, and the channels read before the refusal are read again
        rather than trusted half-written."""
        topology = chain(
            ecmp=EcmpGroup(ROUTES),
            treatment=TreatmentProfile.uniform(ProtocolTreatment(
                ecmp_granularity=HashGranularity.PER_FLOWLET)),
        )
        for _ in range(2):
            with pytest.raises(FastPathUnsupported, match="flowlet ECMP"):
                extract(topology)
        for channel in link_channels(topology):
            channel.treatment = TreatmentProfile.uniform()
        assert_rows_match_transit(topology, Protocol.UDP)

    def test_per_flow_rows_follow_the_flow_not_the_table(self):
        """Two vantage pairs over the same channels hash to different
        routes; each cell gets its own, whichever was extracted first."""
        topology = chain(ecmp=EcmpGroup(ROUTES, salt=2))
        segment = PathRegistry(topology).shortest(1, 3)

        def offsets(client_interface):
            cell = extract_segment_cell(
                topology, segment, Protocol.UDP,
                client_vantage=(1, client_interface), server_vantage=SERVER,
                count=5, interval=1e-3, start=0.0,
            )
            return cell.stages[[3, 6], fastpath.ROUTE_OFFSET].tolist()

        seen = {interface: offsets(interface) for interface in range(2, 10)}
        assert len({tuple(pair) for pair in seen.values()}) > 2
        for interface, expected in seen.items():
            assert offsets(interface) == expected
            fresh = chain(ecmp=EcmpGroup(ROUTES, salt=2))
            probe = Packet(src=Address(1, f"exec{interface}"), dst=Address(3, "exec1"),
                           protocol=Protocol.UDP, size=64, dst_port=7)
            forward, reverse = link_channels(fresh)
            assert expected == [
                transit_reads(forward, probe)[fastpath.ROUTE_OFFSET],
                transit_reads(reverse, probe.reply_to())[fastpath.ROUTE_OFFSET],
            ]


class TestCellIsAValue:
    def test_round_trips_through_pickle(self):
        for name, cell in handbuilt_cells().items():
            clone = pickle.loads(pickle.dumps(cell))
            assert clone is not cell
            assert clone.stages.tobytes() == cell.stages.tobytes(), name
            assert [i for i, _ in clone.extras] == [i for i, _ in cell.extras]
            assert_same_arrays(
                simulate_cell_arrays(clone), simulate_cell_arrays(cell), name
            )

    def test_a_campaign_cell_is_small_on_the_wire(self):
        cell = extract(chain())
        assert len(pickle.dumps(cell)) < 2048  # 10 stages: 1 120 bytes of floats

    def test_host_to_host_cells_pack_the_same_way(self):
        """``extract_probe_cell`` (the §II study) walks the event engine's
        trails; its rows are the same reads."""
        scenario = WanScenario.build(seed=7, cities=["frankfurt"])
        host = scenario.city_hosts["frankfurt"]
        for protocol in Protocol:
            cell = extract_probe_cell(
                scenario.network, host, scenario.london.address, protocol,
                count=20, interval=1.0, start=0.0, src_port=40000, dst_port=7,
            )
            probe = Packet(src=host.address, dst=scenario.london.address,
                           protocol=protocol, size=64, src_port=40000, dst_port=7)
            trail = [
                (segment.channel, packet)
                for packet in (probe, probe.reply_to())
                for segment in scenario.network._build_trail(packet, None)
            ]
            assert len(cell.stages) == len(trail)
            sprayed = {index for index, e in cell.extras if e.routes is not None}
            for index, (channel, packet) in enumerate(trail):
                expected = transit_reads(channel, packet)
                if index in sprayed:
                    expected[fastpath.ROUTE_OFFSET] = 0.0
                    expected[fastpath.JITTER_SCALE] = (
                        channel.jitter_std
                        + channel.treatment.for_protocol(protocol).extra_jitter
                    )
                for column, value in expected.items():
                    assert cell.stages[index, column] == value, (channel.name, column)
            assert bool(sprayed) == (protocol is Protocol.UDP)


class TestRefusals:
    def test_flowlet_ecmp(self):
        topology = chain(
            ecmp=EcmpGroup(ROUTES),
            treatment=TreatmentProfile.uniform(ProtocolTreatment(
                ecmp_granularity=HashGranularity.PER_FLOWLET)),
        )
        with pytest.raises(FastPathUnsupported, match="flowlet ECMP"):
            extract(topology)

    def test_missing_interface(self):
        """A pinned segment over an interface nothing is linked at."""
        topology = chain()
        hops = PathRegistry(topology).shortest(1, 3).as_list()
        unlinked = PathSegment.from_hops(
            [hops[0], replace(hops[1], egress=7), hops[2]]
        )
        with pytest.raises(FastPathUnsupported, match="no link at interface"):
            extract_segment_cell(
                topology, unlinked, Protocol.UDP, client_vantage=CLIENT,
                server_vantage=SERVER, count=5, interval=1e-3, start=0.0,
            )

    def test_destination_that_does_not_echo(self):
        scenario = WanScenario.build(seed=7, cities=["frankfurt"])
        host = scenario.city_hosts["frankfurt"]
        scenario.london.echo_protocols = {Protocol.ICMP}
        with pytest.raises(FastPathUnsupported, match="does not echo UDP"):
            extract_probe_cell(
                scenario.network, host, scenario.london.address, Protocol.UDP,
                count=5, interval=1.0, start=0.0,
            )
        with pytest.raises(FastPathUnsupported, match="no host at"):
            extract_probe_cell(
                scenario.network, host, Address(999, "nobody"), Protocol.UDP,
                count=5, interval=1.0, start=0.0,
            )
