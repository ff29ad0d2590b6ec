"""E6 — Figure 3: PageRank execution time vs Communication Cost.

Runs 10-iteration PageRank for every dataset x partitioner at the two
granularities (configurations i and ii), prints the scatter data, the
correlation of every metric with simulated time, and the best partitioner
per dataset.  The paper's findings checked here:

* Communication Cost is the best predictor of execution time (95%/96% in
  the paper; we require a strong positive correlation that beats the
  balance metrics);
* PageRank is communication bound, so the finer granularity (ii) is not
  faster than (i) for most datasets.
"""

from __future__ import annotations

import pytest

from bench_utils import print_figure_summary
from conftest import CONFIG_I_PARTITIONS, CONFIG_II_PARTITIONS


def _run(config_partitions, bench_session, dataset_names):
    # The shared session means each (dataset, partitioner, k) triple is
    # partitioned once per pytest session across the whole figure suite.
    return (
        bench_session.plan()
        .datasets(dataset_names)
        .granularities(config_partitions)
        .algorithms("PR")
        .run()
    )


@pytest.fixture(scope="module")
def pagerank_runs(bench_session, dataset_names):
    return {
        "config-i": _run(CONFIG_I_PARTITIONS, bench_session, dataset_names),
        "config-ii": _run(CONFIG_II_PARTITIONS, bench_session, dataset_names),
    }


def test_fig3_pagerank_config_i(benchmark, bench_session, dataset_names):
    """Figure 3, configuration (i): 128 partitions."""
    records = benchmark.pedantic(
        _run,
        args=(CONFIG_I_PARTITIONS, bench_session, dataset_names),
        rounds=1,
        iterations=1,
    )
    correlations = print_figure_summary(
        f"Figure 3 (config i, {CONFIG_I_PARTITIONS} partitions) — PageRank time vs CommCost",
        records,
        metric="comm_cost",
    )
    assert correlations["comm_cost"] > 0.75
    assert correlations["comm_cost"] > correlations["balance"]
    assert correlations["comm_cost"] > correlations["part_stdev"]


def test_fig3_pagerank_config_ii(benchmark, bench_session, dataset_names):
    """Figure 3, configuration (ii): 256 partitions."""
    records = benchmark.pedantic(
        _run,
        args=(CONFIG_II_PARTITIONS, bench_session, dataset_names),
        rounds=1,
        iterations=1,
    )
    correlations = print_figure_summary(
        f"Figure 3 (config ii, {CONFIG_II_PARTITIONS} partitions) — PageRank time vs CommCost",
        records,
        metric="comm_cost",
    )
    assert correlations["comm_cost"] > 0.75


def test_fig3_pagerank_granularity_effect(benchmark, pagerank_runs):
    """Finer granularity increases PageRank time for most dataset/partitioner pairs."""

    def compare():
        coarse = {(r.dataset, r.partitioner): r.simulated_seconds for r in pagerank_runs["config-i"]}
        fine = {(r.dataset, r.partitioner): r.simulated_seconds for r in pagerank_runs["config-ii"]}
        slower = sum(1 for key in coarse if fine[key] > coarse[key])
        return slower, len(coarse)

    slower, total = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\nFiner granularity slower for {slower}/{total} (dataset, partitioner) pairs")
    assert slower >= 0.7 * total
