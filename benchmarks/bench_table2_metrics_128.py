"""E4 — Table 2: partitioning metrics for every dataset x partitioner at 128 partitions."""

from __future__ import annotations

from repro import Session
from repro.metrics.report import format_metrics_table
from repro.partitioning.hash_partitioners import EdgePartition2D

from bench_utils import metrics_table, print_header
from conftest import CONFIG_I_PARTITIONS


def test_table2_partitioning_metrics_128(benchmark, all_graphs, dataset_names, bench_scale):
    """Reproduce Table 2 (configuration i, 128 partitions)."""

    def build():
        return metrics_table(Session(graphs=all_graphs), dataset_names, CONFIG_I_PARTITIONS)

    table = benchmark.pedantic(build, rounds=1, iterations=1)

    print_header(
        f"Table 2 — partitioning metrics, {CONFIG_I_PARTITIONS} partitions (scale={bench_scale})"
    )
    print(format_metrics_table(table))

    bound = EdgePartition2D().max_replication(CONFIG_I_PARTITIONS)
    for dataset, rows in table.items():
        by_name = {metrics.strategy: metrics for metrics in rows}
        # Identities from Section 3.1 hold for every cell of the table.
        for metrics in rows:
            assert metrics.comm_cost + metrics.non_cut == metrics.total_replicas
        # CRVC never costs more communication than RVC (it merges the two
        # directions of reciprocated edges into one partition).
        assert by_name["CRVC"].comm_cost <= by_name["RVC"].comm_cost
        # 2D respects its replication bound.
        assert by_name["2D"].replication_factor <= bound
    # The skewed follow graphs are imbalanced under 1D/SC/DC, as in Table 2.
    follow = {m.strategy: m for m in table["follow-dec"]}
    assert follow["1D"].balance > 2.0
    assert follow["SC"].balance > 2.0
    assert follow["RVC"].balance < 1.5
