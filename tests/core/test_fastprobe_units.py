"""Units for the vectorized segment prober and its netsim plumbing."""

import inspect

import numpy as np
import pytest

from repro.core import probing
from repro.core.executor import executor_data_address
from repro.core.fastprobe import SANDBOX_OVERHEAD, FastSegmentProber
from repro.core.localization import FaultLocalizer, estimate_baseline_rtt
from repro.netsim import Link, Network, Simulator, Topology
from repro.netsim.ecmp import EcmpGroup, HashGranularity, Route
from repro.netsim.fastpath import FastPathUnsupported, _vantage_address
from repro.netsim.packet import Protocol
from repro.netsim.treatment import ProtocolTreatment, TreatmentProfile
from repro.pathaware.discovery import PathRegistry
from repro.workloads.scenarios import build_chain


class TestVantageAddress:
    def test_matches_executor_data_address(self):
        """netsim sits below core, so ``fastpath._vantage_address``
        replicates ``executor_data_address`` instead of importing it;
        this is the test that keeps the two in sync."""
        for asn, interface in [(1, 1), (7, 2), (42, 13)]:
            assert _vantage_address((asn, interface)) == executor_data_address(
                asn, interface
            )


class TestFastSegmentProber:
    @pytest.fixture()
    def scenario(self):
        return build_chain(4, seed=11)

    def test_measure_sync_advances_clock_and_counts(self, scenario):
        prober = FastSegmentProber(scenario.network, probes=8, seed=2)
        segment = scenario.registry.shortest(1, 4)
        before = scenario.simulator.now
        m = prober.measure_sync((1, 2), (4, 1), segment)
        assert prober.measurements_run == 1
        assert m.probes == 8
        assert m.finished_at > before
        assert scenario.simulator.now >= m.finished_at

    def test_rtts_include_sandbox_overhead(self, scenario):
        prober = FastSegmentProber(scenario.network, probes=20, seed=2)
        segment = scenario.registry.shortest(1, 4)
        m = prober.measure_sync((1, 2), (4, 1), segment)
        # 3 links * 2 * 5ms propagation + overhead is the analytic floor.
        floor = (6 * 5e-3 + SANDBOX_OVERHEAD) * 1e3
        assert m.mean_rtt_ms() >= floor * 0.99

    def test_explicit_seed_labels_decouple_from_issue_order(self, scenario):
        segment = scenario.registry.shortest(1, 4)
        a = FastSegmentProber(scenario.network, probes=8, seed=2)
        b = FastSegmentProber(scenario.network, probes=8, seed=2)
        # Burn a measurement on ``b`` so its sequence counter differs.
        b.measure_sync((1, 2), (4, 1), segment)
        cell_a = a.build_cell((1, 2), (4, 1), segment, start=0.0,
                              seed_labels=("ep", 3))
        cell_b = b.build_cell((1, 2), (4, 1), segment, start=0.0,
                              seed_labels=("ep", 3))
        assert cell_a.seed == cell_b.seed

    def test_all_lost_measurement_is_nan_mean_full_loss(self, scenario):
        prober = FastSegmentProber(scenario.network, probes=5, seed=2)
        segment = scenario.registry.shortest(1, 4)
        cell = prober.build_cell((1, 2), (4, 1), segment, start=0.0)
        send_times = np.arange(5, dtype=float)
        rtts = np.full(5, np.nan)
        m = prober.measurement_from_arrays(
            cell, (1, 2), (4, 1), segment, send_times, rtts
        )
        assert np.isnan(m.mean_rtt_ms())
        assert m.loss_rate() == 1.0
        assert m.ok  # fast path has no VM execution to fail
        # With nothing delivered, the measurement ends at the timeout.
        assert m.finished_at == pytest.approx(
            cell.start + 4 * cell.interval + cell.timeout
        )

    def test_protocols_share_plumbing(self, scenario):
        prober = FastSegmentProber(scenario.network, probes=6, seed=2)
        segment = scenario.registry.shortest(1, 4)
        for protocol in (Protocol.UDP, Protocol.ICMP):
            m = prober.measure_sync((1, 2), (4, 1), segment, protocol=protocol)
            assert m.protocol is protocol


class TestSandboxOverhead:
    """The host-switch overhead is on both sides of every fast-path verdict:
    in the measured RTTs and in the baseline they are judged against."""

    def test_it_is_stated_once(self):
        prober_default = inspect.signature(FastSegmentProber).parameters[
            "sandbox_overhead"].default
        baseline_default = inspect.signature(estimate_baseline_rtt).parameters[
            "sandbox_overhead"].default
        assert prober_default is baseline_default is probing.SANDBOX_OVERHEAD
        assert SANDBOX_OVERHEAD is probing.SANDBOX_OVERHEAD

    def test_mean_minus_baseline_does_not_depend_on_its_value(self):
        """A healthy 10-AS chain: whatever the constant is, it cancels."""
        def excess_ms(**overhead):
            scenario = build_chain(10, seed=5)
            segment = scenario.registry.shortest(1, 10)
            prober = FastSegmentProber(scenario.network, probes=30, seed=2, **overhead)
            measurement = prober.measure_sync((1, 2), (10, 1), segment)
            baseline = estimate_baseline_rtt(scenario.topology, segment, **overhead)
            return measurement.mean_rtt_ms() - baseline * 1e3

        shipped = excess_ms()
        assert 0.0 < shipped < 5.0  # queueing and jitter only
        for value in (0.0, 1e-3, 50e-3):
            assert excess_ms(sandbox_overhead=value) == pytest.approx(
                shipped, abs=1e-9)


def test_unsupported_path_is_refused_to_the_localizers_caller():
    """``FastPathUnsupported`` is a refusal, not a fallback: no driver
    catches it and re-measures on the event engine, so a localization over
    a flowlet-ECMP link fails loudly at ``localize`` (DESIGN.md §6)."""
    topology = Topology()
    for asn in (1, 2, 3):
        topology.make_as(asn, seed=asn)
    topology.connect(1, 2, 2, 1, Link.symmetric("1-2", base_delay=5e-3, seed=11))
    topology.connect(2, 2, 3, 1, Link.symmetric(
        "2-3", base_delay=5e-3, seed=12,
        ecmp=EcmpGroup([Route(0.0), Route(1e-3)]),
        treatment=TreatmentProfile.uniform(
            ProtocolTreatment(ecmp_granularity=HashGranularity.PER_FLOWLET)
        ),
    ))
    network = Network(topology, Simulator(), seed=4)
    localizer = FaultLocalizer(FastSegmentProber(network, probes=5, seed=1))
    with pytest.raises(FastPathUnsupported, match="flowlet ECMP"):
        localizer.localize(PathRegistry(topology).shortest(1, 3))
