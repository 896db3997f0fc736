"""Decentralized executor discovery and bilateral execution (§VI-A)."""

import pytest

from repro.common.errors import ConfigurationError, DebugletError
from repro.core.application import DebugletApplication
from repro.core.discovery import DecentralizedDirectory, ExecutorAdvertisement
from repro.core.probing import ExecutorFleet
from repro.core.results import EchoMeasurement
from repro.core.executor import executor_data_address
from repro.netsim.packet import Protocol
from repro.sandbox.programs import echo_client, echo_server
from repro.workloads.scenarios import build_chain


@pytest.fixture
def directory_setup():
    scenario = build_chain(3, seed=4)
    fleet = ExecutorFleet(scenario.network, seed=5)
    fleet.deploy_full()
    directory = DecentralizedDirectory(scenario.registry)
    advertisements = {}
    for vantage in fleet.vantages():
        advertisements[vantage] = directory.advertise(
            fleet.get(*vantage), price=1_000_000
        )
    return scenario, fleet, directory, advertisements


class TestDiscovery:
    def test_executors_learned_via_routing_metadata(self, directory_setup):
        _, fleet, directory, _ = directory_setup
        found = directory.executors_in(2)
        assert {(a.asn, a.interface) for a in found} == {(2, 1), (2, 2)}

    def test_executors_on_path(self, directory_setup):
        scenario, _, directory, _ = directory_setup
        path = scenario.registry.shortest(1, 3)
        found = directory.executors_on_path(path)
        assert {(a.asn, a.interface) for a in found} == {
            (1, 2), (2, 1), (2, 2), (3, 1),
        }

    def test_metadata_roundtrip(self, directory_setup):
        _, _, _, advertisements = directory_setup
        advertisement = advertisements[(1, 2)]
        clone = ExecutorAdvertisement.from_metadata(advertisement.to_metadata())
        assert clone == advertisement


class TestEdgeCases:
    def test_empty_as_has_no_executors(self):
        """A directory with no advertisements resolves nothing anywhere."""
        scenario = build_chain(2, seed=1)
        directory = DecentralizedDirectory(scenario.registry)
        path = scenario.registry.shortest(1, 2)
        assert directory.executors_in(1) == []
        assert directory.executors_on_path(path) == []
        assert directory.cheapest_on_path(path) is None

    def test_stale_advertisement_is_unreachable(self, directory_setup):
        """An initiator holding a withdrawn advertisement cannot silently
        schedule work on the delisted executor."""
        scenario, _, directory, advertisements = directory_setup
        stale = advertisements[(2, 1)]
        directory.withdraw(stale)
        path = scenario.registry.shortest(1, 3)
        assert (2, 1) not in {
            (a.asn, a.interface) for a in directory.executors_on_path(path)
        }
        with pytest.raises(DebugletError, match="unreachable"):
            directory.negotiate(
                stale, offer=2_000_000, window_start=1.0, window_end=10.0
            )

    def test_withdraw_between_negotiate_and_execute(self, directory_setup):
        """Resolution happens at submission, so an agreement struck before
        the withdraw is refused rather than run on a delisted executor."""
        scenario, _, directory, advertisements = directory_setup
        path = scenario.registry.shortest(1, 3)
        agreement = directory.negotiate(
            advertisements[(1, 2)], offer=1_000_000,
            window_start=1.0, window_end=10.0,
        )
        directory.withdraw(advertisements[(1, 2)])
        app = DebugletApplication.from_stock(
            "cli", echo_client(Protocol.UDP, executor_data_address(3, 1),
                               count=1, interval_us=20_000, dst_port=8900),
            path=path.as_list(),
        )
        with pytest.raises(DebugletError, match="unreachable"):
            directory.execute(agreement, app)

    def test_price_tiebreak_is_deterministic(self):
        """Equal asking prices break by (asn, interface), so every
        initiator converges on the same executor for the same routing
        state — no thundering herd split."""
        scenario = build_chain(3, seed=4)
        fleet = ExecutorFleet(scenario.network, seed=5)
        fleet.deploy_full()
        directory = DecentralizedDirectory(scenario.registry)
        prices = {(1, 2): 500, (2, 1): 500, (2, 2): 500, (3, 1): 700}
        advertisements = {
            vantage: directory.advertise(fleet.get(*vantage), price=price)
            for vantage, price in prices.items()
        }
        path = scenario.registry.shortest(1, 3)
        cheapest = directory.cheapest_on_path(path)
        assert (cheapest.asn, cheapest.interface) == (1, 2)
        directory.withdraw(advertisements[(1, 2)])
        # Next tie: same AS, two interfaces — lower interface wins.
        cheapest = directory.cheapest_on_path(path)
        assert (cheapest.asn, cheapest.interface) == (2, 1)
        directory.withdraw(advertisements[(2, 1)])
        cheapest = directory.cheapest_on_path(path)
        assert (cheapest.asn, cheapest.interface) == (2, 2)
        # Only the expensive one left: price dominates, no tie to break.
        directory.withdraw(advertisements[(2, 2)])
        cheapest = directory.cheapest_on_path(path)
        assert (cheapest.asn, cheapest.interface) == (3, 1)
        assert cheapest.price == 700


class TestNegotiation:
    def test_lowball_offer_rejected(self, directory_setup):
        _, _, directory, advertisements = directory_setup
        with pytest.raises(DebugletError, match="below asking"):
            directory.negotiate(
                advertisements[(1, 2)], offer=1, window_start=10.0, window_end=20.0
            )

    def test_past_window_rejected(self, directory_setup):
        scenario, _, directory, advertisements = directory_setup
        scenario.simulator.schedule_at(100.0, lambda: None)
        scenario.simulator.run_until_idle()
        with pytest.raises(ConfigurationError):
            directory.negotiate(
                advertisements[(1, 2)], offer=2_000_000,
                window_start=50.0, window_end=60.0,
            )

    def test_empty_window_rejected(self, directory_setup):
        _, _, directory, advertisements = directory_setup
        with pytest.raises(ConfigurationError, match="empty window"):
            directory.negotiate(
                advertisements[(1, 2)], offer=2_000_000,
                window_start=10.0, window_end=10.0,
            )

    def test_agreement_and_direct_execution(self, directory_setup):
        scenario, fleet, directory, advertisements = directory_setup
        path = scenario.registry.shortest(1, 3)
        count = 5
        records = {}

        server_agreement = directory.negotiate(
            advertisements[(3, 1)], offer=1_000_000,
            window_start=1.0, window_end=30.0,
        )
        client_agreement = directory.negotiate(
            advertisements[(1, 2)], offer=1_000_000,
            window_start=1.2, window_end=30.0,
        )
        server_app = DebugletApplication.from_stock(
            "srv", echo_server(Protocol.UDP, max_echoes=count,
                               idle_timeout_us=2_000_000),
            listen_port=8900, path=path.reversed().as_list(),
        )
        client_app = DebugletApplication.from_stock(
            "cli", echo_client(Protocol.UDP, executor_data_address(3, 1),
                               count=count, interval_us=20_000, dst_port=8900),
            path=path.as_list(),
        )
        directory.execute(server_agreement, server_app,
                          on_complete=lambda r: records.__setitem__("s", r))
        directory.execute(client_agreement, client_app,
                          on_complete=lambda r: records.__setitem__("c", r))
        scenario.simulator.run_until_idle()
        assert records["c"].completed
        echo = EchoMeasurement.from_result(records["c"].result, probes_sent=count)
        assert echo.received == count
        # Results still carry a certificate even without the chain.
        assert records["c"].certificate is not None
