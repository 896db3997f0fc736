"""Analysis helpers: trace statistics and RTT cluster detection."""

from repro.analysis.clustering import Cluster, cluster_count, detect_clusters, spread_ms
from repro.analysis.stats import (
    CellStats,
    coefficient_of_variation,
    format_table1_row,
    step_changes,
    table_row,
)

__all__ = [
    "CellStats",
    "Cluster",
    "cluster_count",
    "coefficient_of_variation",
    "detect_clusters",
    "format_table1_row",
    "spread_ms",
    "step_changes",
    "table_row",
]
