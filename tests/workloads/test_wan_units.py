"""Unit tests for the WAN calibration helpers."""

import pytest

import repro.workloads.wan as wan
from repro.netsim import HashGranularity, Protocol
from repro.workloads.wan import CITY_SPECS, build_city_link


@pytest.fixture
def frankfurt():
    return CITY_SPECS["frankfurt"]


class TestCalibratedTreatment:
    def test_udp_sprays_forward_only(self, frankfurt):
        forward = wan._calibrated_treatment(frankfurt, Protocol.UDP, direction="forward")
        reverse = wan._calibrated_treatment(frankfurt, Protocol.UDP, direction="reverse")
        assert forward.ecmp_granularity is HashGranularity.PER_PACKET
        assert reverse.ecmp_granularity is HashGranularity.SINGLE

    def test_icmp_and_raw_are_prioritized(self, frankfurt):
        for protocol in (Protocol.ICMP, Protocol.RAW_IP):
            treatment = wan._calibrated_treatment(
                frankfurt, protocol, direction="forward"
            )
            assert treatment.priority

    def test_extra_delay_plus_jitter_mean_hits_target(self, frankfurt):
        """The folded-normal correction: 2*(extra + 0.7979*jitter) must
        equal the protocol's RTT offset above the base."""
        for protocol in (Protocol.TCP, Protocol.ICMP, Protocol.RAW_IP):
            treatment = wan._calibrated_treatment(
                frankfurt, protocol, direction="forward"
            )
            target = frankfurt.protocols[protocol].mean_ms - frankfurt.base_rtt_ms
            realized = 2 * (
                treatment.extra_delay * 1e3
                + wan._FOLD_MEAN * treatment.extra_jitter * 1e3
            )
            assert realized == pytest.approx(target, abs=0.02), protocol

    def test_loss_split_across_directions(self, frankfurt):
        treatment = wan._calibrated_treatment(frankfurt, Protocol.TCP, direction="forward")
        expected = frankfurt.protocols[Protocol.TCP].loss_pm / 2000.0
        assert treatment.base_drop == pytest.approx(expected)


class TestUdpRouteGroup:
    def test_offsets_positive_and_centered(self, frankfurt):
        group = wan._udp_route_group(frankfurt, seed=1)
        offsets_ms = [route.delay_offset * 1e3 for route in group.routes]
        assert len(offsets_ms) == frankfurt.udp_routes
        assert all(offset > 0 for offset in offsets_ms)
        center = sum(offsets_ms) / len(offsets_ms)
        expected = (
            frankfurt.protocols[Protocol.UDP].mean_ms - frankfurt.base_rtt_ms
            - 2 * wan._FOLD_MEAN * wan.UDP_JITTER_MS
        )
        assert center == pytest.approx(expected, abs=0.05)

    def test_triangular_weighting(self):
        spec = CITY_SPECS["bangalore"]
        group = wan._udp_route_group(spec, seed=1)
        weights = [route.weight for route in group.routes]
        mid = len(weights) // 2
        assert weights[mid] > weights[0]
        assert weights[mid] > weights[-1]


class TestCityLink:
    def test_forward_carries_churn_reverse_does_not(self):
        spec = CITY_SPECS["newyork"]
        link = build_city_link(spec, seed=3, horizon=86400.0)
        assert link.forward.churn.shifts  # NY has random churn
        assert not link.reverse.churn.shifts

    def test_scripted_shift_present(self):
        spec = CITY_SPECS["frankfurt"]
        link = build_city_link(spec, seed=3, horizon=86400.0)
        shift = link.forward.churn.shifts[-1]
        assert shift.start == 8 * 3600.0
        assert Protocol.UDP in shift.protocols
        assert Protocol.ICMP not in shift.protocols

    def test_base_delay_accounts_for_internal_rtt(self):
        spec = CITY_SPECS["sanfrancisco"]
        link = build_city_link(spec, seed=3, horizon=86400.0)
        expected = (spec.base_rtt_ms - wan.INTERNAL_RTT_MS) / 2.0 * 1e-3
        assert link.forward.base_delay == pytest.approx(expected)

    def test_all_city_specs_have_all_protocols(self):
        for spec in CITY_SPECS.values():
            assert set(spec.protocols) == set(Protocol)
