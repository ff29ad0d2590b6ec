"""Run the complete evaluation and print a compact paper-vs-reproduction digest.

This regenerates, in one go, the headline number behind every figure and
table of the paper (correlation coefficients, best partitioners,
granularity and infrastructure effects) and prints them next to the values
the paper reports.  It is the script used to populate EXPERIMENTS.md.

Every study is a plan over one shared :class:`repro.Session`, so each
(dataset, partitioner, granularity) triple is partitioned exactly once
even though four algorithm sweeps, two metric tables and the
infrastructure study all consume it; the cache accounting is printed at
the end.

Run with::

    python examples/full_reproduction_summary.py [scale]
"""

from __future__ import annotations

import sys

from repro import Session
from repro.analysis import best_partitioner_per_dataset, correlation_with_time
from repro.analysis.results import group_by_dataset
from repro.datasets.catalog import PAPER_DATASET_NAMES, load_all_datasets
from repro.datasets.characterization import build_table1, format_table1
from repro.engine.cluster import INFRASTRUCTURE_CONFIGS

SOCIAL = ["youtube", "pokec", "orkut", "soclivejournal", "follow-jul", "follow-dec"]


def main(scale: float = 0.35, seed: int = 17) -> None:
    graphs = load_all_datasets(scale=scale, seed=seed)
    # One session for the entire evaluation: every study below shares the
    # same dataset registry and partitioned-graph cache.
    session = Session(scale=scale, seed=seed, graphs=graphs)

    print("### Table 1 — dataset characterisation")
    print(format_table1(build_table1(scale=scale, seed=seed)))
    print()

    print("### Tables 2/3 — partitioning metrics movement (128 -> 256 partitions)")
    coarse = session.plan().granularities(128).run()
    fine = session.plan().granularities(256).run()
    growth = []
    for c, f in zip(coarse, fine):
        growth.append(f.metrics.comm_cost / c.metrics.comm_cost if c.metrics.comm_cost else 1.0)
    print(f"CommCost growth when doubling partitions: "
          f"min x{min(growth):.2f}, mean x{sum(growth) / len(growth):.2f}, max x{max(growth):.2f}"
          f"  (paper: increases, but significantly less than double)")
    print()

    paper_correlations = {
        ("PR", 128): 0.95, ("PR", 256): 0.96,
        ("CC", 128): 0.92, ("CC", 256): 0.94,
        ("TR", 128): 0.95, ("TR", 256): 0.97,
        ("SSSP", 128): 0.80, ("SSSP", 256): 0.86,
    }
    for algorithm, metric in (("PR", "comm_cost"), ("CC", "comm_cost"),
                              ("TR", "cut"), ("SSSP", "comm_cost")):
        datasets = SOCIAL if algorithm == "SSSP" else list(PAPER_DATASET_NAMES)
        print(f"### Figure for {algorithm} — correlation of {metric} with simulated time")
        for partitions in (128, 256):
            records = (
                session.plan()
                .datasets(datasets)
                .granularities(partitions)
                .algorithms(algorithm)
                .landmarks(5)
                .run()
            )
            value = correlation_with_time(records, metric)
            other = correlation_with_time(records, "comm_cost" if metric == "cut" else "cut")
            best = best_partitioner_per_dataset(records)
            spreads = []
            for _, group in group_by_dataset(records).items():
                times = [r.simulated_seconds for r in group]
                spreads.append((max(times) - min(times)) / min(times))
            print(f"  {partitions} partitions: corr({metric})={value:+.3f} "
                  f"[paper ~{paper_correlations[(algorithm, partitions)]:.2f}], "
                  f"corr(other)={other:+.3f}, "
                  f"best/worst spread mean {100 * sum(spreads) / len(spreads):.1f}%")
            print(f"    best partitioner per dataset: {best}")
        print()

    print("### Section 4 — infrastructure study (PR on follow-dec, 256 partitions)")
    plan = session.plan().datasets("follow-dec").partitioners("2D").granularities(256).algorithms("PR")
    times = {
        label: plan.cluster(cluster).run()[0].simulated_seconds
        for label, cluster in INFRASTRUCTURE_CONFIGS.items()
    }
    baseline = next(iter(times.values()))
    for label, seconds in times.items():
        print(f"  {label:30s} {seconds:8.4f}s "
              f"({(1.0 - seconds / baseline) * 100:5.1f}% faster; paper: 15% for iii, 20% for iv)")
    print()

    stats = session.stats
    print("### Session cache accounting")
    print(f"  partition builds: {stats.partition_builds} (unique triples across every study)")
    print(f"  partition cache hits: {stats.partition_hits} "
          f"(cells served without re-partitioning)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.35)
