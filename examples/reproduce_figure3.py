"""Regenerate Figure 3 of the paper (PageRank time vs Communication Cost).

Runs the full dataset x partitioner sweep for both granularities and prints
the scatter series, the correlation coefficient and the per-dataset best
strategy — the same information the paper's Figure 3 conveys.  This is the
scripted counterpart of ``pytest benchmarks/bench_fig3_pagerank.py``.

Run with::

    python examples/reproduce_figure3.py [scale]
"""

from __future__ import annotations

import sys

from repro import Session
from repro.analysis import best_partitioner_per_dataset, correlation_with_time
from repro.analysis.results import records_to_rows
from repro.metrics.report import format_table


def main(scale: float = 0.25) -> None:
    # One session across both configurations: the nine datasets are
    # generated once and shared (each granularity still partitions its
    # own placements — they are different triples).
    session = Session(scale=scale, seed=17)
    for label, partitions in (("configuration (i)", 128), ("configuration (ii)", 256)):
        records = session.plan().granularities(partitions).algorithms("PR").run()

        print("=" * 72)
        print(f"Figure 3, {label}: PageRank, {partitions} partitions, scale={scale}")
        print("=" * 72)
        print(format_table(records_to_rows(records),
                           ["dataset", "partitioner", "comm_cost", "seconds"]))
        correlation = correlation_with_time(records, "comm_cost")
        print(f"\nPearson correlation (CommCost vs simulated time): {correlation:+.3f} "
              f"(paper reports +0.95 / +0.96)")
        print("Best partitioner per dataset:")
        for dataset, partitioner in best_partitioner_per_dataset(records).items():
            print(f"  {dataset:>16}: {partitioner}")
        print()


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.25)
