"""Measurement traces: their statistics, their columns, and the columns
against the record-list trace they replaced (``trace_reference.py``)."""

import math

import numpy as np
import pytest

from repro.netsim import (
    FaultInjector,
    InterfaceId,
    Link,
    Network,
    OneWayProbeTrain,
    Simulator,
    Topology,
)
from repro.netsim import traffic
from repro.netsim.packet import Protocol
from repro.netsim.trace import MeasurementTrace
from repro.workloads.wan import WanScenario
from tests.netsim import trace_reference as reference
from tests.netsim.probe_records import ProbeRecord, probe_records


def _trace_with(rtts, lost=0):
    n = len(rtts) + lost
    return MeasurementTrace.from_arrays(
        Protocol.UDP,
        np.arange(1.0, n + 1),
        np.array(list(rtts) + [math.nan] * lost, dtype=float),
        label="t",
    )


def _fates(records) -> list[tuple]:
    return [(r.seq, r.send_time, r.rtt) for r in records]


def _column_fates(trace: MeasurementTrace) -> list[tuple]:
    """``(seq, send_time, rtt | None)`` per probe, read off the columns."""
    send_times, rtts = trace.columns
    return [
        (index + 1, send, None if math.isnan(rtt) else rtt)
        for index, (send, rtt) in enumerate(zip(send_times.tolist(), rtts.tolist()))
    ]


def _same_summary(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (a[k] != a[k] and b[k] != b[k]) for k in a
    )


class TestCounting:
    def test_sent_received_lost(self):
        trace = _trace_with([0.01, 0.02], lost=3)
        assert trace.sent == 5
        assert trace.received == 2
        assert trace.lost == 3

    def test_loss_rates(self):
        trace = _trace_with([0.01] * 9, lost=1)
        assert trace.loss_rate() == pytest.approx(0.1)
        assert trace.loss_per_mille() == pytest.approx(100.0)

    def test_empty_trace(self):
        trace = MeasurementTrace.from_arrays(Protocol.TCP, [], [])
        assert trace.loss_rate() == 0.0
        assert np.isnan(trace.mean_rtt_ms())


class TestStatistics:
    def test_mean_and_std_in_ms(self):
        trace = _trace_with([0.010, 0.020, 0.030])
        assert trace.mean_rtt_ms() == pytest.approx(20.0)
        assert trace.std_rtt_ms() == pytest.approx(10.0)

    def test_single_sample_std_is_zero(self):
        assert _trace_with([0.01]).std_rtt_ms() == 0.0

    def test_percentile(self):
        trace = _trace_with([0.01 * i for i in range(1, 101)])
        assert trace.percentile_ms(50) == pytest.approx(505.0, rel=0.01)

    def test_time_series_excludes_losses(self):
        trace = _trace_with([0.01, 0.02], lost=2)
        times, rtts = trace.time_series()
        assert len(times) == 2
        assert list(rtts) == pytest.approx([10.0, 20.0])

    def test_summary_fields(self):
        summary = _trace_with([0.01], lost=1).summary()
        assert summary["protocol"] == "UDP"
        assert summary["sent"] == 2
        assert summary["loss_per_mille"] == pytest.approx(500.0)


class TestColumns:
    def test_from_arrays_keeps_the_arrays(self):
        send_times = np.arange(4.0)
        rtts = np.array([0.1, np.nan, 0.3, 0.4])
        trace = MeasurementTrace.from_arrays(Protocol.UDP, send_times, rtts)
        held_send, held_rtts = trace.columns
        assert np.shares_memory(held_send, send_times)
        assert np.shares_memory(held_rtts, rtts)

    def test_columns_are_read_only(self):
        trace = _trace_with([0.01, 0.02], lost=1)
        for column in trace.columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0
        with pytest.raises(AttributeError):
            trace.columns = (np.zeros(3), np.zeros(3))

    def test_the_callers_array_stays_writable(self):
        rtts = np.array([0.1, 0.2])
        MeasurementTrace.from_arrays(Protocol.UDP, np.arange(2.0), rtts)
        rtts[0] = 0.5  # the trace froze its own view, not the caller's array

    def test_columns_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            MeasurementTrace.from_arrays(Protocol.UDP, np.arange(3.0), np.ones(2))
        with pytest.raises(ValueError, match="1-D"):
            MeasurementTrace.from_arrays(Protocol.UDP, np.ones((2, 2)), np.ones((2, 2)))

    def test_records_are_a_derived_view(self):
        trace = _trace_with([0.01, 0.02], lost=1)
        records = probe_records(trace)
        assert records == [
            ProbeRecord(1, 1.0, 0.01),
            ProbeRecord(2, 2.0, 0.02),
            ProbeRecord(3, 3.0, None),
        ]
        assert [record.lost for record in records] == [False, False, True]
        assert records != probe_records(_trace_with([0.01, 0.02, 0.03]))

    def test_records_equal_the_references(self):
        send_times = np.array([0.0, 1.0, 2.5, 3.0])
        rtts = np.array([np.nan, 0.02, 0.03, np.nan])
        ours = MeasurementTrace.from_arrays(Protocol.ICMP, send_times, rtts)
        theirs = reference.MeasurementTrace.from_arrays(Protocol.ICMP, send_times, rtts)
        assert _fates(probe_records(ours)) == _fates(theirs.records)
        assert _column_fates(ours) == _fates(theirs.records)


class TestEventTrainsAgainstReference:
    """The same event-driven runs, once with the column-writing trains and
    once with the record-filling trains they replaced: every probe's
    ``(seq, send_time, rtt)`` and every statistic equal with ``==``."""

    def test_event_study_seed_8(self, monkeypatch):
        # The §II loss rates lose about 2 of 24 x 60 probes, and may lose
        # none; at 200 per cell about 6 are lost.
        ours = WanScenario.build(seed=8).run_protocol_study(probes_per_protocol=200)
        monkeypatch.setattr(traffic, "ProbeTrain", reference.ProbeTrain)
        theirs = WanScenario.build(seed=8).run_protocol_study(probes_per_protocol=200)
        assert sorted(ours) == sorted(theirs)
        lost = 0
        for city in ours:
            for protocol, trace in ours[city].items():
                expected = theirs[city][protocol]
                assert isinstance(expected, reference.MeasurementTrace)
                assert _column_fates(trace) == _fates(expected.records), trace.label
                assert _same_summary(trace.summary(), expected.summary())
                assert not any(column.flags.writeable for column in trace.columns)
                lost += trace.lost
        assert lost > 0  # the comparison covered lost probes too

    @staticmethod
    def _two_ases():
        sim = Simulator()
        topo = Topology()
        topo.make_as(1, seed=1)
        topo.make_as(2, seed=2)
        topo.connect(1, 1, 2, 1, Link.symmetric("1-2", base_delay=10e-3, seed=7))
        net = Network(topo, sim, seed=3)
        client, server = net.make_host(1, "client"), net.make_host(2, "server")
        FaultInjector(topo).link_blackhole(
            InterfaceId(1, 1), InterfaceId(2, 1), start=0.3, end=0.6
        )
        return sim, client, server

    def test_one_way_train(self):
        runs = []
        for train_class in (OneWayProbeTrain, reference.OneWayProbeTrain):
            sim, client, server = self._two_ases()
            train = train_class(client, server, Protocol.UDP, count=20, interval=0.05)
            sim.run_until_idle()
            runs.append(train.finalize())
        ours, theirs = runs
        assert 0 < ours.lost < ours.sent == 20
        assert _column_fates(ours) == _fates(theirs.records)
        assert _same_summary(ours.summary(), theirs.summary())
