"""Segment probing and fault localization over chains."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.localization import (
    FaultJudge,
    FaultLocalizer,
    estimate_baseline_rtt,
)
from repro.core.probing import SegmentProber
from repro.netsim import FaultInjector, InterfaceId
from repro.netsim.faults import FaultLocation
from repro.workloads.scenarios import deployed_chain


@pytest.fixture
def chain5():
    scenario, fleet = deployed_chain(5, seed=2, fleet_seed=3)
    prober = SegmentProber(fleet, probes=15, interval_us=5000)
    return scenario, fleet, prober


class TestFleet:
    def test_full_deployment_covers_all_interfaces(self, chain5):
        scenario, fleet, _ = chain5
        # 4 links x 2 ends = 8 border routers.
        assert len(fleet) == 8

    def test_duplicate_deploy_rejected(self, chain5):
        _, fleet, _ = chain5
        with pytest.raises(ConfigurationError):
            fleet.deploy(1, 2)

    def test_missing_executor_raises(self, chain5):
        _, fleet, _ = chain5
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            fleet.get(1, 99)


class TestSegmentProber:
    def test_clean_segment_measurement(self, chain5):
        scenario, fleet, prober = chain5
        path = scenario.registry.shortest(1, 5)
        measurement = prober.measure_sync((1, 2), (5, 1), path)
        assert measurement.ok
        assert measurement.echo.received == 15
        baseline_ms = estimate_baseline_rtt(scenario.topology, path) * 1e3
        assert measurement.mean_rtt_ms() == pytest.approx(baseline_ms, rel=0.15)

    def test_segment_must_join_vantages(self, chain5):
        scenario, _, prober = chain5
        path = scenario.registry.shortest(1, 5)
        with pytest.raises(ConfigurationError):
            prober.measure((2, 1), (5, 1), path)

    def test_sub_segment_measurement(self, chain5):
        scenario, _, prober = chain5
        path = scenario.registry.shortest(1, 5)
        sub = path.subsegment(2, 4)
        measurement = prober.measure_sync((2, 2), (4, 1), sub)
        assert measurement.ok
        assert measurement.mean_rtt_ms() < 25.0

    def test_certificates_attached(self, chain5):
        scenario, _, prober = chain5
        path = scenario.registry.shortest(1, 2)
        measurement = prober.measure_sync((1, 2), (2, 1), path)
        assert len(measurement.certificates()) == 2


class TestLocalizationStrategies:
    @pytest.mark.parametrize("strategy", ["binary", "linear", "exhaustive"])
    def test_link_delay_fault_found(self, chain5, strategy):
        scenario, fleet, prober = chain5
        injector = FaultInjector(scenario.topology)
        fault = injector.link_delay(
            InterfaceId(3, 2), InterfaceId(4, 1),
            extra_delay=15e-3, start=0.0, end=1e12,
        )
        localizer = FaultLocalizer(prober)
        report = localizer.localize(
            scenario.registry.shortest(1, 5), strategy=strategy
        )
        assert report.found(fault.location)
        assert len(report.suspects) == 1

    @pytest.mark.parametrize("strategy", ["binary", "linear", "exhaustive"])
    def test_interior_fault_found(self, chain5, strategy):
        scenario, fleet, prober = chain5
        injector = FaultInjector(scenario.topology)
        fault = injector.as_internal_delay(
            3, extra_delay=20e-3, start=0.0, end=1e12
        )
        localizer = FaultLocalizer(prober)
        report = localizer.localize(
            scenario.registry.shortest(1, 5), strategy=strategy
        )
        assert report.found(fault.location)

    @pytest.mark.parametrize("strategy", ["binary", "linear", "exhaustive"])
    def test_clean_path_reports_nothing(self, chain5, strategy):
        scenario, _, prober = chain5
        localizer = FaultLocalizer(prober)
        report = localizer.localize(
            scenario.registry.shortest(1, 5), strategy=strategy
        )
        assert report.suspects == []

    def test_loss_fault_found(self, chain5):
        scenario, _, prober = chain5
        injector = FaultInjector(scenario.topology)
        fault = injector.link_loss(
            InterfaceId(2, 2), InterfaceId(3, 1),
            loss=0.3, start=0.0, end=1e12,
        )
        localizer = FaultLocalizer(prober)
        report = localizer.localize(scenario.registry.shortest(1, 5))
        assert report.found(fault.location)

    def test_binary_uses_fewer_measurements_than_exhaustive(self, chain5):
        scenario, _, prober = chain5
        injector = FaultInjector(scenario.topology)
        injector.link_delay(
            InterfaceId(4, 2), InterfaceId(5, 1),
            extra_delay=15e-3, start=0.0, end=1e12,
        )
        localizer = FaultLocalizer(prober)
        path = scenario.registry.shortest(1, 5)
        binary = localizer.localize(path, strategy="binary")
        exhaustive = localizer.localize(path, strategy="exhaustive")
        assert binary.measurements_used < exhaustive.measurements_used

    def test_report_accounting(self, chain5):
        scenario, _, prober = chain5
        localizer = FaultLocalizer(prober)
        report = localizer.localize(scenario.registry.shortest(1, 5))
        assert report.measurements_used == len(report.verdicts)
        assert report.time_to_locate > 0

    def test_unknown_strategy_rejected(self, chain5):
        scenario, _, prober = chain5
        localizer = FaultLocalizer(prober)
        with pytest.raises(ConfigurationError):
            localizer.localize(scenario.registry.shortest(1, 5), strategy="magic")


class TestFaultJudge:
    def test_loss_threshold(self):
        judge = FaultJudge(loss_threshold=0.05)

        class FakeMeasurement:
            ok = True

            def loss_rate(self):
                return 0.10

            def mean_rtt_ms(self):
                return 10.0

        verdict = judge.judge(FakeMeasurement(), baseline_rtt_ms=10.0)
        assert verdict.faulty
        assert any("loss" in reason for reason in verdict.reasons)

    def test_rtt_requires_both_slack_and_factor(self):
        judge = FaultJudge(rtt_slack_ms=2.0, rtt_factor=1.5)

        class Slightly:
            ok = True

            def loss_rate(self):
                return 0.0

            def mean_rtt_ms(self):
                return 11.0  # +10% and +1 ms: inside both tolerances

        assert not judge.judge(Slightly(), baseline_rtt_ms=10.0).faulty

    def test_failed_execution_is_faulty(self):
        judge = FaultJudge()

        class Failed:
            ok = False

        assert judge.judge(Failed(), baseline_rtt_ms=1.0).faulty


class TestFoundMatching:
    def test_link_matches_either_orientation(self):
        from repro.core.localization import LocalizationReport
        from repro.pathaware.segments import PathSegment
        from repro.netsim.topology import PathHop

        path = PathSegment.from_hops(
            [PathHop(1, None, 2), PathHop(2, 1, None)]
        )
        report = LocalizationReport(
            path=path, strategy="binary",
            suspects=[FaultLocation(link=(InterfaceId(1, 2), InterfaceId(2, 1)))],
            verdicts=[], started_at=0.0, finished_at=1.0,
        )
        swapped = FaultLocation(link=(InterfaceId(2, 1), InterfaceId(1, 2)))
        assert report.found(swapped)
