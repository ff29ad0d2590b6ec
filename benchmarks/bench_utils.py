"""Shared reporting helpers for the benchmark harness."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro import Session
from repro.analysis.correlation import correlation_table
from repro.analysis.results import RunRecord, best_partitioner_per_dataset, group_by_dataset
from repro.metrics.partition_metrics import PartitioningMetrics
from repro.metrics.report import format_table

__all__ = ["metrics_table", "print_header", "print_figure_summary", "records_table"]


def metrics_table(
    session: Session, datasets: Sequence[str], num_partitions: int
) -> Dict[str, List[PartitioningMetrics]]:
    """Table 2/3: every paper partitioner's metrics per dataset (a metrics-only plan)."""
    results = session.plan().datasets(datasets).granularities(num_partitions).run()
    return {
        dataset: [record.metrics for record in rows]
        for dataset, rows in results.group_by("dataset").items()
    }


def print_header(title: str) -> None:
    """Print a banner so each reproduced artefact is easy to find in the log."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def records_table(records: Iterable[RunRecord], metric: str) -> List[Dict[str, object]]:
    """Rows of (dataset, partitioner, metric, simulated seconds) for one figure."""
    rows = []
    for record in records:
        rows.append(
            {
                "dataset": record.dataset,
                "partitioner": record.partitioner,
                metric: int(record.metric(metric)),
                "seconds": round(record.simulated_seconds, 4),
            }
        )
    return rows


def print_figure_summary(
    title: str,
    records: Sequence[RunRecord],
    metric: str,
    extra_metrics: Sequence[str] = ("comm_cost", "cut", "balance", "part_stdev", "non_cut"),
) -> Dict[str, float]:
    """Print one figure panel: the scatter data, correlations and best strategies.

    Returns the correlation table so callers can assert on it.
    """
    print_header(title)
    print(format_table(records_table(records, metric), ["dataset", "partitioner", metric, "seconds"]))
    correlations = correlation_table(records, metrics=extra_metrics)
    print()
    print("Correlation of partitioning metrics with simulated execution time:")
    for name, value in correlations.items():
        marker = "  <-- paper's predictor" if name == metric else ""
        print(f"  {name:>12}: {value:+.3f}{marker}")
    best = best_partitioner_per_dataset(records)
    print("Best partitioner per dataset:")
    for dataset, group in group_by_dataset(records).items():
        times = {r.partitioner: r.simulated_seconds for r in group}
        ordered = sorted(times, key=times.get)
        print(f"  {dataset:>16}: {best[dataset]}  (ranking: {', '.join(ordered)})")
    return correlations
