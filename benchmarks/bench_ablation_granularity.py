"""E13 — ablation: sweeping the partition count (granularity axis).

The paper only samples two granularities (128 and 256 partitions) but
concludes that "partitioning depends on the number of partitions".  This
ablation sweeps a wider range of partition counts for a communication-bound
algorithm (PageRank) and a compute/state-bound one (Triangle Count) on one
large social analogue, locating where the cost curves bend.
"""

from __future__ import annotations

from repro import Session
from repro.metrics.report import format_table

from bench_utils import print_header

PARTITION_COUNTS = [16, 32, 64, 128, 256]
PARTITIONERS = ["2D", "DC", "RVC"]


def test_granularity_sweep(benchmark, all_graphs, bench_scale):
    """Sweep the partition count for PageRank and Triangle Count on follow-jul."""
    graph = all_graphs["follow-jul"]

    def run():
        plan = (
            Session(graphs={"follow-jul": graph})
            .plan()
            .datasets("follow-jul")
            .partitioners(PARTITIONERS)
            .granularities(PARTITION_COUNTS)
            .iterations(5)
        )
        return {algorithm: plan.algorithms(algorithm).run() for algorithm in ("PR", "TR")}

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)
    # {algorithm: {partitioner: {num_partitions: simulated seconds}}}
    curves = {
        algorithm: results.pivot(rows="partitioner", cols="num_partitions")
        for algorithm, results in sweeps.items()
    }

    print_header(f"Granularity ablation — follow-jul (scale={bench_scale})")
    rows = []
    for algorithm, by_partitioner in curves.items():
        for partitioner in PARTITIONERS:
            row = {"algorithm": algorithm, "partitioner": partitioner}
            for count, seconds in by_partitioner[partitioner].items():
                row[f"p={count}"] = round(seconds, 4)
            rows.append(row)
    print(format_table(rows))
    for algorithm, results in sweeps.items():
        best = {
            count: cells.best().partitioner
            for count, cells in results.group_by("num_partitions").items()
        }
        print(f"Best strategy per granularity ({algorithm}): {best}")

    # PageRank is communication bound: its cost grows with the partition
    # count once the partitions are plentiful (CommCost keeps growing).
    pr_curve = curves["PR"]["2D"]
    assert pr_curve[256] > pr_curve[16]
    # Triangle Count is much less sensitive to granularity than PageRank.
    tr_curve = curves["TR"]["2D"]
    pr_growth = pr_curve[256] / pr_curve[16]
    tr_growth = tr_curve[256] / tr_curve[16]
    assert tr_growth < pr_growth
    # The CommCost metric itself grows monotonically with the partition count.
    comm_curve = list(sweeps["PR"].pivot("partitioner", "num_partitions", "comm_cost")["2D"].values())
    assert comm_curve == sorted(comm_curve)
