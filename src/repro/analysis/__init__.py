"""Correlation analysis, result records and the cut-to-fit advisor."""

from .advisor import Recommendation, recommend_empirically, recommend_partitioner
from .correlation import correlation_table, correlation_with_time, pearson, spearman
from .serialization import load_records, record_from_dict, record_to_dict, report_to_dict, save_records
from .results import (
    RunRecord,
    best_partitioner_per_dataset,
    group_by_dataset,
    records_to_rows,
)

__all__ = [
    "Recommendation",
    "RunRecord",
    "best_partitioner_per_dataset",
    "correlation_table",
    "load_records",
    "record_from_dict",
    "record_to_dict",
    "report_to_dict",
    "save_records",
    "correlation_with_time",
    "group_by_dataset",
    "pearson",
    "recommend_empirically",
    "recommend_partitioner",
    "records_to_rows",
    "spearman",
]
