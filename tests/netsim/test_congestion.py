"""Congestion processes: determinism, priority classes, drops."""

import pytest

from repro.common.rng import derive_rng
from repro.netsim.congestion import (
    CongestionConfig,
    CongestionProcess,
    calm_congestion,
)


class TestConfigValidation:
    def test_utilization_must_be_below_one(self):
        with pytest.raises(ValueError):
            CongestionConfig(base_utilization=1.0)

    def test_service_time_positive(self):
        with pytest.raises(ValueError):
            CongestionConfig(queue_service_time=0.0)


class TestUtilization:
    def test_deterministic_for_same_seed(self):
        config = CongestionConfig()
        a = CongestionProcess(config, seed=5)
        b = CongestionProcess(config, seed=5)
        for t in (0.0, 1000.0, 50000.0):
            assert a.utilization(t) == b.utilization(t)

    def test_different_seed_different_bursts(self):
        config = CongestionConfig(burst_rate=1.0 / 600.0)
        a = CongestionProcess(config, seed=5)
        b = CongestionProcess(config, seed=6)
        samples_a = [a.utilization(t) for t in range(0, 50000, 500)]
        samples_b = [b.utilization(t) for t in range(0, 50000, 500)]
        assert samples_a != samples_b

    def test_stream_is_derived_only_when_bursts_are_scheduled(self, derived_streams):
        """A burst-free process (every calm link, every process the
        traffic matrix installs) never draws, so it derives no stream; one
        with bursts derives exactly the ``(seed, label, "bursts")`` stream."""
        calm_congestion(seed=3)
        CongestionProcess(CongestionConfig(burst_rate=0.0), seed=3)
        assert derived_streams == []
        bursty = CongestionProcess(CongestionConfig(), seed=3, label="x")
        assert derived_streams == [(3, "x", "bursts")]
        assert bursty._bursts

    def test_diurnal_variation_present(self):
        config = CongestionConfig(diurnal_amplitude=0.2, burst_rate=0.0)
        process = CongestionProcess(config, seed=1)
        values = {process.utilization(t) for t in range(0, 86400, 3600)}
        assert len(values) > 1

    def test_clamped_to_valid_range(self):
        config = CongestionConfig(
            base_utilization=0.9, burst_rate=1.0 / 100.0,
            burst_magnitude_range=(0.5, 0.9),
        )
        process = CongestionProcess(config, seed=1)
        for t in range(0, 20000, 100):
            assert 0.0 <= process.utilization(t) <= 0.99

    def test_injected_burst_raises_utilization(self):
        process = calm_congestion(seed=1)
        before = process.utilization(100.0)
        process.inject_burst(50.0, 100.0, 0.4)
        assert process.utilization(100.0) == pytest.approx(before + 0.4)
        assert process.utilization(200.0) == pytest.approx(before)

    def test_clear_injected(self):
        process = calm_congestion(seed=1)
        process.inject_burst(0.0, 1000.0, 0.4)
        process.clear_injected()
        assert process.utilization(100.0) == pytest.approx(0.05)


class TestQueueDelay:
    def test_priority_sees_smaller_mean(self):
        config = CongestionConfig(base_utilization=0.6, burst_rate=0.0,
                                  diurnal_amplitude=0.0)
        process = CongestionProcess(config, seed=1)
        assert process.mean_queue_delay(0.0, priority=True) < process.mean_queue_delay(
            0.0, priority=False
        )

    def test_sample_is_nonnegative(self):
        process = CongestionProcess(CongestionConfig(), seed=1)
        rng = derive_rng(1, "test")
        for _ in range(100):
            assert process.sample_queue_delay(10.0, rng) >= 0.0

    def test_sample_mean_tracks_analytic_mean(self):
        config = CongestionConfig(base_utilization=0.5, burst_rate=0.0,
                                  diurnal_amplitude=0.0)
        process = CongestionProcess(config, seed=1)
        rng = derive_rng(2, "test")
        samples = [process.sample_queue_delay(0.0, rng) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(process.mean_queue_delay(0.0), rel=0.15)


class TestDrops:
    def test_no_drops_below_threshold(self):
        config = CongestionConfig(base_utilization=0.3, burst_rate=0.0,
                                  diurnal_amplitude=0.0, drop_threshold=0.7)
        process = CongestionProcess(config, seed=1)
        assert process.drop_probability(0.0) == 0.0

    def test_drops_grow_with_excess_utilization(self):
        config = CongestionConfig(base_utilization=0.85, burst_rate=0.0,
                                  diurnal_amplitude=0.0, drop_threshold=0.7)
        process = CongestionProcess(config, seed=1)
        p1 = process.drop_probability(0.0)
        assert p1 > 0.0
        assert process.drop_probability(0.0, multiplier=6.0) == pytest.approx(6 * p1)

    def test_drop_probability_capped_at_one(self):
        config = CongestionConfig(base_utilization=0.95, burst_rate=0.0,
                                  diurnal_amplitude=0.0, drop_threshold=0.1,
                                  drop_scale=10.0)
        process = CongestionProcess(config, seed=1)
        assert process.drop_probability(0.0, multiplier=100.0) == 1.0
