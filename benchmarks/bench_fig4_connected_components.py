"""E7 — Figure 4: Connected Components execution time vs Communication Cost.

The paper finds CommCost to be the best predictor (92%/94%) but notes that,
unlike PageRank, the active vertex set shrinks quickly, so the fine-grained
configuration (ii) performs better on the larger datasets (up to 22%).
"""

from __future__ import annotations

from bench_utils import print_figure_summary
from conftest import CONFIG_I_PARTITIONS, CONFIG_II_PARTITIONS


def _run(config_partitions, bench_session, dataset_names):
    # Shared session: placements built by the other figure modules are
    # reused here instead of re-partitioned.
    return (
        bench_session.plan()
        .datasets(dataset_names)
        .granularities(config_partitions)
        .algorithms("CC")
        .run()
    )


def test_fig4_connected_components_config_i(benchmark, bench_session, dataset_names):
    """Figure 4, configuration (i)."""
    records = benchmark.pedantic(
        _run,
        args=(CONFIG_I_PARTITIONS, bench_session, dataset_names),
        rounds=1,
        iterations=1,
    )
    correlations = print_figure_summary(
        f"Figure 4 (config i, {CONFIG_I_PARTITIONS} partitions) — Connected Components",
        records,
        metric="comm_cost",
    )
    assert correlations["comm_cost"] > 0.7
    assert correlations["comm_cost"] > correlations["balance"]


def test_fig4_connected_components_config_ii(benchmark, bench_session, dataset_names):
    """Figure 4, configuration (ii)."""
    records = benchmark.pedantic(
        _run,
        args=(CONFIG_II_PARTITIONS, bench_session, dataset_names),
        rounds=1,
        iterations=1,
    )
    correlations = print_figure_summary(
        f"Figure 4 (config ii, {CONFIG_II_PARTITIONS} partitions) — Connected Components",
        records,
        metric="comm_cost",
    )
    assert correlations["comm_cost"] > 0.7


def test_fig4_active_set_shrinks(benchmark, bench_session, bench_scale, bench_seed):
    """CC converges for most vertices after a few iterations (the paper's explanation)."""
    from repro.algorithms.connected_components import connected_components

    pgraph = bench_session.partitioned("soclivejournal", "2D", CONFIG_I_PARTITIONS)

    result = benchmark.pedantic(
        lambda: connected_components(pgraph, max_iterations=10), rounds=1, iterations=1
    )
    actives = [record.active_vertices for record in result.report.supersteps]
    print(f"\nActive vertices per superstep (soclivejournal): {actives}")
    assert actives[-1] < 0.5 * actives[0]
