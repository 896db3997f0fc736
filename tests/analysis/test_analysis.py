"""Statistics and clustering helpers."""

import numpy as np
import pytest

from repro.analysis import (
    CellStats,
    cluster_count,
    coefficient_of_variation,
    detect_clusters,
    format_table1_row,
    spread_ms,
    step_changes,
    table_row,
)
from repro.netsim.packet import Protocol
from repro.netsim.trace import MeasurementTrace


def _trace(rtts_ms, lost=0):
    return MeasurementTrace.from_arrays(
        Protocol.UDP,
        np.arange(len(rtts_ms) + lost, dtype=float),
        np.concatenate([np.array(rtts_ms) * 1e-3, np.full(lost, np.nan)]),
    )


class TestCellStats:
    def test_from_trace(self):
        stats = CellStats.from_trace(_trace([10.0, 20.0], lost=2))
        assert stats.mean_ms == pytest.approx(15.0)
        assert stats.loss_per_mille == pytest.approx(500.0)
        assert stats.samples == 2

    def test_table_row_and_formatting(self):
        row = table_row({Protocol.UDP: _trace([10.0])})
        rendered = format_table1_row("city", row)
        assert "city" in rendered and "UDP" in rendered and "‰" in rendered


class TestCoefficientOfVariation:
    def test_basic(self):
        values = np.array([10.0, 12.0, 8.0, 10.0])
        assert coefficient_of_variation(values) > 0

    def test_empty_and_degenerate(self):
        assert np.isnan(coefficient_of_variation(np.array([])))
        assert coefficient_of_variation(np.array([5.0])) == 0.0


class TestStepChanges:
    def test_detects_level_shift(self):
        rtts = np.concatenate([np.full(300, 70.0), np.full(300, 75.5)])
        times = np.arange(600.0)
        changes = step_changes(times, rtts, window=60, threshold=3.0)
        assert len(changes) == 1
        assert 200 < changes[0] < 400

    def test_quiet_series_has_no_steps(self):
        rng = np.random.default_rng(1)
        rtts = 70.0 + rng.normal(0, 0.3, 600)
        changes = step_changes(np.arange(600.0), rtts, window=60, threshold=3.0)
        assert changes == []

    def test_short_series(self):
        assert step_changes(np.arange(10.0), np.ones(10)) == []


class TestClustering:
    def test_four_well_separated_clusters(self):
        rng = np.random.default_rng(2)
        centers = [12.0, 13.6, 15.2, 16.8]
        samples = np.concatenate(
            [rng.normal(c, 0.15, 500) for c in centers]
        )
        clusters = detect_clusters(samples, bandwidth_ms=0.25)
        assert len(clusters) == 4
        for cluster, center in zip(clusters, centers):
            assert cluster.center_ms == pytest.approx(center, abs=0.2)

    def test_single_mode(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(100.0, 0.5, 2000)
        assert cluster_count(samples, bandwidth_ms=0.5) == 1

    def test_weights_sum_to_about_one(self):
        rng = np.random.default_rng(4)
        samples = np.concatenate(
            [rng.normal(10, 0.1, 500), rng.normal(14, 0.1, 1500)]
        )
        clusters = detect_clusters(samples)
        assert sum(c.weight for c in clusters) == pytest.approx(1.0, abs=0.05)
        assert clusters[0].weight < clusters[1].weight

    def test_empty_input(self):
        assert detect_clusters(np.array([])) == []

    def test_constant_input(self):
        clusters = detect_clusters(np.full(100, 42.0))
        assert len(clusters) == 1
        assert clusters[0].center_ms == 42.0


class TestSpread:
    def test_robust_range(self):
        rng = np.random.default_rng(5)
        samples = rng.uniform(130.0, 160.0, 5000)
        assert spread_ms(samples) == pytest.approx(30.0, abs=2.0)

    def test_outliers_excluded(self):
        samples = np.concatenate([np.full(1000, 10.0), np.array([500.0])])
        assert spread_ms(samples) < 10.0
