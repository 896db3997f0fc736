"""RTT cluster detection.

Figure 2 of the paper shows UDP RTTs forming four clearly visible
clusters, which the authors attribute to four parallel routes. This
module finds such clusters with a kernel-density peak search —
deliberately simple, deterministic, and dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Points of the grid the density is evaluated on.
GRID_POINTS = 512


@dataclass(frozen=True)
class Cluster:
    """A density mode: its center (ms) and the fraction of samples near it."""

    center_ms: float
    weight: float


def detect_clusters(
    rtts_ms: np.ndarray,
    *,
    bandwidth_ms: float = 0.25,
    min_weight: float = 0.04,
) -> list[Cluster]:
    """Find RTT density modes.

    Builds a Gaussian KDE on a fixed grid of :data:`GRID_POINTS` and
    reports local maxima whose
    assigned sample mass exceeds ``min_weight``. Returns clusters sorted
    by center.
    """
    values = np.asarray(rtts_ms, dtype=float)
    if values.size == 0:
        return []
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-9:
        return [Cluster(center_ms=lo, weight=1.0)]
    pad = 3 * bandwidth_ms
    grid = np.linspace(lo - pad, hi + pad, GRID_POINTS)
    # KDE via broadcasting in manageable chunks.
    density = np.zeros_like(grid)
    chunk = 20000
    for start in range(0, values.size, chunk):
        part = values[start : start + chunk]
        density += np.exp(
            -0.5 * ((grid[:, None] - part[None, :]) / bandwidth_ms) ** 2
        ).sum(axis=1)
    density /= values.size * bandwidth_ms * np.sqrt(2 * np.pi)

    peaks = [
        i
        for i in range(1, GRID_POINTS - 1)
        if density[i] >= density[i - 1] and density[i] > density[i + 1]
    ]
    if not peaks:
        return [Cluster(center_ms=float(np.median(values)), weight=1.0)]

    centers = grid[peaks]
    # Assign each sample to its nearest peak and weigh the clusters.
    assignment = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
    clusters = []
    for index, center in enumerate(centers):
        weight = float(np.mean(assignment == index))
        if weight >= min_weight:
            members = values[assignment == index]
            clusters.append(
                Cluster(center_ms=float(np.mean(members)), weight=weight)
            )
    clusters.sort(key=lambda cluster: cluster.center_ms)
    return clusters


def cluster_count(rtts_ms: np.ndarray, **kwargs) -> int:
    """Number of significant RTT modes (Fig 2's ‘four clusters’ check)."""
    return len(detect_clusters(rtts_ms, **kwargs))


def spread_ms(rtts_ms: np.ndarray) -> float:
    """Robust spread of an RTT distribution, p1 to p99 (Fig 3's ‘30 ms
    range’)."""
    values = np.asarray(rtts_ms, dtype=float)
    if values.size == 0:
        return float("nan")
    return float(np.percentile(values, 99.0) - np.percentile(values, 1.0))
