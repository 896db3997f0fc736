"""Unit tests for the metrics registry (repro.obs.metrics)."""

import math

import numpy as np
import pytest

from repro.obs import Observability, to_prometheus
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_RECORDER,
    Histogram,
    NullMetricsRegistry,
    _NullRecorder,
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


class TestNullRegistry:
    def test_hands_out_shared_null_recorder(self):
        registry = NullMetricsRegistry()
        assert registry.counter("x") is NULL_RECORDER
        assert registry.gauge("y") is NULL_RECORDER
        assert registry.histogram("z") is NULL_RECORDER
        # All four recorder methods exist and do nothing.
        NULL_RECORDER.inc()
        NULL_RECORDER.inc(5)
        NULL_RECORDER.set(1.0)
        NULL_RECORDER.add(1.0)
        NULL_RECORDER.observe(1.0)
        NULL_RECORDER.observe_many(np.ones(3))
        assert registry.snapshot() == []
        assert not registry.enabled


class TestStudyRecording:
    """The §II study records each trace's RTTs with one ``observe_many``."""

    @staticmethod
    def _study(obs, probes=300):
        WanScenario.build(seed=7, obs=obs).run_protocol_study(
            probes_per_protocol=probes, fast=True
        )

    def test_disabled_bundle_makes_no_per_value_call(self, monkeypatch):
        def per_value(self, value):
            raise AssertionError("a disabled bundle observed a single value")

        monkeypatch.setattr(_NullRecorder, "observe", per_value)
        self._study(Observability.disabled(), probes=2000)

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
