"""Partitioning-quality metrics (Balance, NonCut, Cut, CommCost, PartStDev)."""

from .partition_metrics import (
    METRIC_NAMES,
    PartitioningMetrics,
    compute_metrics,
    master_partition_array,
)
from .report import format_metrics_table, format_table, metrics_table_rows

__all__ = [
    "METRIC_NAMES",
    "PartitioningMetrics",
    "compute_metrics",
    "master_partition_array",
    "format_metrics_table",
    "format_table",
    "metrics_table_rows",
]
