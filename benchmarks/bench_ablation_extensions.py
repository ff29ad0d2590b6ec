"""E12 — ablation: degree/state-aware partitioners vs the paper's six.

The paper's strategies are all stateless hash/modulo placements.  This
ablation measures how much headroom the smarter streaming strategies from
the related-work space (DBH, greedy, HDRF, Fennel-style) have on the
metrics the paper identifies as runtime predictors, and on simulated
PageRank time, quantifying the "custom implementation" gap the paper's
introduction alludes to.
"""

from __future__ import annotations

from repro.algorithms.pagerank import pagerank
from repro.engine.partitioned_graph import PartitionedGraph
from repro.metrics.report import format_table
from repro.partitioning.registry import EXTENSION_PARTITIONER_NAMES, PAPER_PARTITIONER_NAMES

from bench_utils import print_header
from conftest import CONFIG_I_PARTITIONS

DATASETS = ["youtube", "pokec", "orkut"]
#: The ablation's partition count, below the main sweeps'.  HDRF, Greedy
#: and Fennel score only the partitions holding an edge's endpoints, so their
#: per-edge cost no longer grows with it; it stays at 32 so the ablation's
#: recorded orderings remain comparable.
ABLATION_PARTITIONS = 32


def _evaluate(all_graphs, bench_seed):
    rows = []
    per_strategy_comm = {}
    per_strategy_time = {}
    for dataset in DATASETS:
        graph = all_graphs[dataset]
        for name in PAPER_PARTITIONER_NAMES + EXTENSION_PARTITIONER_NAMES:
            pgraph = PartitionedGraph.partition(graph, name, ABLATION_PARTITIONS)
            metrics = pgraph.metrics
            result = pagerank(pgraph, num_iterations=5)
            rows.append(
                {
                    "dataset": dataset,
                    "partitioner": name,
                    "kind": "paper" if name in PAPER_PARTITIONER_NAMES else "extension",
                    "comm_cost": metrics.comm_cost,
                    "cut": metrics.cut,
                    "balance": round(metrics.balance, 2),
                    "pr_seconds": round(result.simulated_seconds, 4),
                }
            )
            per_strategy_comm.setdefault(name, 0)
            per_strategy_comm[name] += metrics.comm_cost
            per_strategy_time.setdefault(name, 0.0)
            per_strategy_time[name] += result.simulated_seconds
    return rows, per_strategy_comm, per_strategy_time


def test_ablation_extension_partitioners(benchmark, all_graphs, bench_seed, bench_scale):
    """Compare the paper's six strategies against DBH/Greedy/HDRF/Fennel."""
    rows, comm, times = benchmark.pedantic(
        _evaluate, args=(all_graphs, bench_seed), rounds=1, iterations=1
    )

    print_header(
        f"Ablation — extension partitioners at {ABLATION_PARTITIONS} partitions (scale={bench_scale})"
    )
    print(format_table(rows))

    best_paper_comm = min(comm[name] for name in PAPER_PARTITIONER_NAMES)
    best_extension_comm = min(comm[name] for name in EXTENSION_PARTITIONER_NAMES)
    best_paper_time = min(times[name] for name in PAPER_PARTITIONER_NAMES)
    best_extension_time = min(times[name] for name in EXTENSION_PARTITIONER_NAMES)
    print(
        f"\nTotal CommCost   — best paper strategy: {best_paper_comm:,}, "
        f"best extension: {best_extension_comm:,}"
    )
    print(
        f"Total PR seconds — best paper strategy: {best_paper_time:.4f}, "
        f"best extension: {best_extension_time:.4f}"
    )
    # State-aware placement reduces replication (and therefore simulated
    # PageRank time) relative to the best stateless strategy.
    assert best_extension_comm < best_paper_comm
    assert best_extension_time < best_paper_time * 1.05
