"""Unit tests for the metrics registry (repro.obs.metrics)."""

import math

import numpy as np
import pytest

from repro.obs import Observability, to_prometheus
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    Histogram,
    log_buckets,
)
from repro.workloads.wan import WanScenario

pytestmark = pytest.mark.obs


class TestLogBuckets:
    def test_geometric_progression(self):
        bounds = log_buckets(1.0, 2.0, 5)
        assert bounds == (1.0, 2.0, 4.0, 8.0, 16.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, 0)

    def test_default_buckets_cover_microseconds_to_half_hour(self):
        assert DEFAULT_BUCKETS[0] == 1e-6
        assert DEFAULT_BUCKETS[-1] > 1800.0


class TestCounter:
    def test_inc(self):
        registry = MetricsRegistry()
        c = registry.counter("events_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_labelled_counters_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("drops_total", reason="ttl")
        b = registry.counter("drops_total", reason="loss")
        a.inc()
        assert a.value == 1
        assert b.value == 0

    def test_same_labels_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", k="v", j="w")
        b = registry.counter("x_total", j="w", k="v")  # order-insensitive
        assert a is b


class TestGauge:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        g = registry.gauge("queue_depth")
        g.set(7.0)
        g.add(-2.0)
        assert g.value == 5.0


class TestHistogram:
    def test_observations_land_in_fixed_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("rtt", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            h.observe(value)
        assert h.counts == [1, 1, 1, 1]  # last is the +Inf overflow
        assert h.total == 4
        assert h.sum == pytest.approx(105.0)

    def test_boundary_goes_to_lower_bucket(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", bounds=(1.0, 2.0))
        h.observe(1.0)  # bisect_left: exactly-on-bound -> that bucket
        assert h.counts == [1, 0, 0]

    @pytest.mark.parametrize("with_nan", [False, True])
    def test_observe_many_equals_the_loop(self, with_nan):
        rng = np.random.default_rng(3)
        values = np.concatenate([
            rng.lognormal(-3.0, 2.0, 500),
            [0.0, 1e-6, 2e-6, 3e-6, DEFAULT_BUCKETS[-1], 1e12, -1.0],
        ])
        if with_nan:
            values[::97] = np.nan
        one, many = Histogram("h", ()), Histogram("h", ())
        for chunk in np.array_split(values, 3):  # a running sum across calls
            for value in chunk:
                one.observe(float(value))
            many.observe_many(chunk)
        many.observe_many(np.empty(0))
        assert many.counts == one.counts
        assert many.total == one.total == len(values)
        assert many.sum == one.sum or (math.isnan(many.sum) and math.isnan(one.sum))
        assert type(many.sum) is float and all(type(c) is int for c in many.counts)


class TestRegistry:
    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_snapshot_is_deterministically_ordered(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.counter("a_total", z="1")
        registry.counter("a_total", a="1")
        names = [(name, labels) for _, name, labels, _ in registry.snapshot()]
        assert names == sorted(names)


class TestStudyRecording:
    """The §II study records each trace's RTTs with one ``observe_many``."""

    @staticmethod
    def _study(obs, probes=300):
        WanScenario.build(seed=7, obs=obs).run_protocol_study(
            probes_per_protocol=probes, fast=True
        )

    def test_study_makes_no_per_value_call(self, monkeypatch):
        """Every ``probe_rtt_seconds`` histogram takes its trace's RTTs in
        one ``observe_many``, never one ``observe`` per value."""
        batches = []
        observe, observe_many = Histogram.observe, Histogram.observe_many

        def per_value(self, value):
            if self.name == "probe_rtt_seconds":
                raise AssertionError("the study observed a single RTT")
            observe(self, value)

        def per_array(self, values):
            if self.name == "probe_rtt_seconds":
                batches.append(len(values))
            observe_many(self, values)

        monkeypatch.setattr(Histogram, "observe", per_value)
        monkeypatch.setattr(Histogram, "observe_many", per_array)
        obs = Observability.enabled()
        self._study(obs, probes=2000)
        histograms = [
            metric for _, name, _, metric in obs.metrics.snapshot()
            if name == "probe_rtt_seconds"
        ]
        assert histograms and len(batches) == len(histograms)
        assert sum(batches) == sum(h.total for h in histograms) > 0

    def test_export_equals_the_per_value_loops(self, monkeypatch):
        batched = Observability.enabled()
        self._study(batched)

        def per_value(self, values):
            for value in values:
                self.observe(float(value))

        monkeypatch.setattr(Histogram, "observe_many", per_value)
        looped = Observability.enabled()
        self._study(looped)
        text = to_prometheus(batched.metrics)
        assert "probe_rtt_seconds_bucket" in text
        assert text.encode() == to_prometheus(looped.metrics).encode()
