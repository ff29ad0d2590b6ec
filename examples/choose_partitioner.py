"""Cut to fit: choose the partitioner for *your* computation and dataset.

This example walks the full decision procedure the paper advocates:

1. characterise the dataset;
2. get the heuristic recommendation (no measurement needed);
3. measure the candidate partitioners' metrics and refine the choice;
4. verify by running the actual computation with the recommended and a
   baseline strategy.

Run with::

    python examples/choose_partitioner.py [dataset] [algorithm]

e.g. ``python examples/choose_partitioner.py orkut TR``.
"""

from __future__ import annotations

import sys

from repro import (
    Session,
    load_dataset,
    recommend_empirically,
    recommend_partitioner,
    summarize,
)
from repro.metrics.report import format_table

NUM_PARTITIONS = 64


def main(dataset: str = "soclivejournal", algorithm: str = "PR") -> None:
    graph = load_dataset(dataset, scale=0.5, seed=7)
    # One session across the advisor and the verification runs: the
    # placements the advisor measures in step 2 are reused in step 3.
    session = Session(scale=0.5, seed=7)
    summary = summarize(graph)
    print(f"Dataset {dataset}: {summary.num_vertices} vertices, {summary.num_edges} edges, "
          f"symmetry {summary.symmetry_percent:.1f}%, "
          f"{summary.connected_components} weak components")

    # Step 1: the paper's heuristics, straight from the dataset summary.
    heuristic = recommend_partitioner(summary, algorithm)
    print(f"\nHeuristic recommendation: {heuristic}")

    # Step 2: measure the cheap partitioning metrics for every candidate and
    # pick the minimiser of the metric that predicts runtime for this
    # algorithm (CommCost for PR/CC/SSSP, Cut for TR).
    empirical = recommend_empirically(graph, algorithm, NUM_PARTITIONS, session=session)
    print(f"Empirical recommendation: {empirical}")
    rows = [
        {"partitioner": name, empirical.metric: int(value)}
        for name, value in sorted(empirical.candidates.items(), key=lambda kv: kv[1])
    ]
    print(format_table(rows))

    # Step 3: verify by actually running the computation.
    print(f"\nRunning {algorithm} with three strategies at {NUM_PARTITIONS} partitions:")
    policies = {
        "heuristic": heuristic.partitioner,
        "empirical": empirical.partitioner,
        "baseline (RVC)": "RVC",
    }
    records = (
        session.plan()
        .datasets(dataset)
        .partitioners(list(policies.values()))
        .granularities(NUM_PARTITIONS)
        .algorithms(algorithm)
        .run()
    )
    results = [
        {
            "policy": label,
            "partitioner": record.partitioner,
            "comm_cost": record.metrics.comm_cost,
            "cut": record.metrics.cut,
            "seconds": round(record.simulated_seconds, 4),
        }
        for label, record in zip(policies, records)
    ]
    print(format_table(results))
    fastest = min(results, key=lambda row: row["seconds"])
    print(f"\nFastest policy here: {fastest['policy']} ({fastest['partitioner']})")
    stats = session.stats
    print(f"Partition cache: {stats.partition_builds} builds, "
          f"{stats.partition_hits} hits across advisor + verification runs")


if __name__ == "__main__":
    main(*sys.argv[1:3])
