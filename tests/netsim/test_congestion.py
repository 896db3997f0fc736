"""Congestion processes: determinism, priority classes, drops."""

import math

import pytest

from repro.common.rng import derive_rng
from repro.netsim.congestion import (
    DAY,
    Burst,
    CongestionConfig,
    CongestionProcess,
    calm_congestion,
)
from tests.netsim.transit_reference import (
    reference_drop_probability,
    reference_mean_queue_delay,
)


def every_burst_utilization(process, t):
    """``utilization(t)`` by its definition: every burst asked, in start order."""
    config = process.config
    value = config.base_utilization
    if config.diurnal_amplitude:
        value += config.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / DAY + config.diurnal_phase
        )
    for burst in process._bursts + process._extra:
        if burst.start <= t < burst.end:
            value += burst.magnitude
    return min(max(value, 0.0), 0.99)


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


class TestBurstScanIsExact:
    """A burst counts for as long as it lasts, however many later ones have
    started since (the scan used to look at the last 64 starts only)."""

    def test_a_long_burst_outlives_any_number_of_short_ones(self):
        config = CongestionConfig(
            base_utilization=0.1, diurnal_amplitude=0.0, burst_rate=0.0
        )
        process = CongestionProcess(config, seed=1)
        process._schedule(
            [Burst(0.0, 1000.0, 0.5)]
            + [Burst(1.0 + i, 0.5, 0.01) for i in range(70)]
        )
        assert process.utilization(10.0) == 0.1 + 0.5 + 0.01
        assert process.utilization(66.2) == 0.1 + 0.5 + 0.01  # 65 starts later
        assert process.utilization(500.0) == 0.1 + 0.5  # 70 starts later
        assert process.utilization(1000.0) == 0.1

    def test_dense_overlapping_bursts_match_the_definition(self):
        config = CongestionConfig(
            base_utilization=0.05,
            burst_rate=1.0 / 5.0,
            burst_mean_duration=120.0,
            burst_magnitude_range=(0.001, 0.004),
        )
        process = CongestionProcess(config, seed=4, horizon=3000.0)
        process.inject_burst(700.0, 50.0, 0.1)
        assert len(process._bursts) > 400
        instants = [k * 5.83 for k in range(515)] + [
            edge for burst in process._bursts[::7] for edge in (burst.start, burst.end)
        ]
        deep = 0
        for t in instants:
            assert process.utilization(t) == every_burst_utilization(process, t)
            starts = sum(1 for burst in process._bursts if burst.start <= t)
            deep += any(
                t < burst.end for burst in process._bursts[: max(0, starts - 64)]
            )
        assert deep > 100  # the instants the 64-start window got wrong

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_bursts_match_the_definition(self, seed):
        process = CongestionProcess(
            CongestionConfig(burst_rate=1.0 / 600.0), seed=seed
        )
        for t in range(0, 172800, 97):
            assert process.utilization(t) == every_burst_utilization(process, t)

    def test_before_the_first_burst_and_with_none(self):
        bursty = CongestionProcess(CongestionConfig(diurnal_amplitude=0.0), seed=2)
        assert bursty.utilization(bursty._bursts[0].start / 2) == 0.30
        assert calm_congestion(seed=2).utilization(1e6) == 0.05


class TestOneStatement:
    """``drop_and_queue_mean`` is what a packet pays; the three public
    readings are callers of it, and all of them are the parent's formulas."""

    @pytest.mark.parametrize("multiplier", [0.0, 1.0, 6.0, 400.0])
    @pytest.mark.parametrize("priority", [False, True])
    def test_public_readings_and_parent_formulas_agree(self, multiplier, priority):
        config = CongestionConfig(
            base_utilization=0.55, diurnal_amplitude=0.2, burst_rate=1.0 / 300.0,
            drop_threshold=0.6, drop_scale=2.0,
        )
        process = CongestionProcess(config, seed=8)
        hot = 0
        for t in range(0, 86400, 211):
            drop, mean = process.drop_and_queue_mean(float(t), multiplier, priority)
            assert drop == process.drop_probability(t, multiplier=multiplier)
            assert drop == reference_drop_probability(process, t, multiplier=multiplier)
            assert mean == process.mean_queue_delay(t, priority=priority)
            assert mean == reference_mean_queue_delay(process, t, priority=priority)
            hot += drop > 0.0
        assert hot or not multiplier

    def test_sampling_draws_the_bare_gamma(self):
        config = CongestionConfig(base_utilization=0.5, queue_shape=1.5)
        process = CongestionProcess(config, seed=1)
        ours, bare = derive_rng(2, "q"), derive_rng(2, "q")
        for t in (0.0, 40.0, 4000.0):
            mean = process.mean_queue_delay(t, priority=True)
            assert process.sample_queue_delay(t, ours, priority=True) == (
                mean / 1.5 * bare.standard_gamma(1.5)
            )


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
