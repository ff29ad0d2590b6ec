"""E5 — Table 3: partitioning metrics at 256 partitions, compared with Table 2."""

from __future__ import annotations

from repro import Session
from repro.metrics.report import format_metrics_table

from bench_utils import metrics_table, print_header
from conftest import CONFIG_I_PARTITIONS, CONFIG_II_PARTITIONS


def test_table3_partitioning_metrics_256(benchmark, all_graphs, dataset_names, bench_scale):
    """Reproduce Table 3 (configuration ii, 256 partitions) and the Table 2 -> 3 movement."""

    def build():
        return metrics_table(Session(graphs=all_graphs), dataset_names, CONFIG_II_PARTITIONS)

    fine = benchmark.pedantic(build, rounds=1, iterations=1)
    coarse = metrics_table(Session(graphs=all_graphs), dataset_names, CONFIG_I_PARTITIONS)

    print_header(
        f"Table 3 — partitioning metrics, {CONFIG_II_PARTITIONS} partitions (scale={bench_scale})"
    )
    print(format_metrics_table(fine))

    # The appendix's observation: doubling the partition count increases
    # communication cost, but by significantly less than 2x, and raises the
    # balance factor.
    for dataset in fine:
        for coarse_metrics, fine_metrics in zip(coarse[dataset], fine[dataset]):
            assert fine_metrics.comm_cost >= coarse_metrics.comm_cost
            assert fine_metrics.comm_cost < 2 * coarse_metrics.comm_cost
    worst_balance_fine = max(m.balance for rows in fine.values() for m in rows)
    worst_balance_coarse = max(m.balance for rows in coarse.values() for m in rows)
    assert worst_balance_fine >= worst_balance_coarse
