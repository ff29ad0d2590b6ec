"""E11 — the paper's conclusions as a decision procedure (advisor validation).

The paper ends with heuristics for tailoring the partitioning to the
computation (Destination Cut for smaller datasets and 2D for large ones
when the algorithm is communication bound; balanced strategies and fine
granularity for the per-vertex-state-heavy Triangle Count).  This benchmark
compares three policies over a (dataset x algorithm) grid:

* **heuristic advisor** — the paper's conclusions, as encoded by
  ``recommend_partitioner``;
* **empirical advisor** — measure the paper's predictor metric for every
  candidate and pick its minimiser (``recommend_empirically``);
* **general-purpose pick** — the single partitioner with the best total
  time across *all* algorithms, i.e. what a framework default optimised
  "for the general case" would use.

The paper's claim is that tailoring beats the general case; the benchmark
asserts that the heuristic advisor's mean loss versus the per-run optimum
is small and not worse than the general-purpose pick.
"""

from __future__ import annotations

from repro import Session
from repro.analysis.advisor import recommend_empirically, recommend_partitioner
from repro.analysis.results import group_by_dataset
from repro.metrics.report import format_table

from bench_utils import print_header
from conftest import CONFIG_I_PARTITIONS

DATASETS = ["youtube", "pokec", "orkut", "soclivejournal", "follow-jul"]
ALGORITHMS = ["PR", "CC", "TR"]


def _collect_runs(all_graphs):
    graphs = {name: all_graphs[name] for name in DATASETS}
    plan = (
        Session(graphs=graphs)
        .plan()
        .datasets(DATASETS)
        .granularities(CONFIG_I_PARTITIONS)
        .iterations(5)
    )
    runs = {algorithm: plan.algorithms(algorithm).run() for algorithm in ALGORITHMS}
    return graphs, runs


def test_advisor_choices_beat_the_general_case(benchmark, all_graphs):
    """Tailoring the partitioner to the computation is close to optimal."""
    graphs, runs = benchmark.pedantic(_collect_runs, args=(all_graphs,), rounds=1, iterations=1)

    print_header("Advisor validation — tailoring the partitioner to the computation")

    # The "general case" partitioner: lowest total time across every run of
    # every algorithm (what a framework default would aim for).
    totals = {}
    for records in runs.values():
        for record in records:
            totals.setdefault(record.partitioner, 0.0)
            totals[record.partitioner] += record.simulated_seconds
    general_choice = min(totals, key=totals.get)

    rows = []
    losses = {"heuristic": [], "empirical": [], "general": []}
    for algorithm, records in runs.items():
        for dataset, group in group_by_dataset(records).items():
            times = {r.partitioner: r.simulated_seconds for r in group}
            best_partitioner = min(times, key=times.get)
            best_time = times[best_partitioner]
            heuristic = recommend_partitioner(graphs[dataset], algorithm).partitioner
            empirical = recommend_empirically(
                graphs[dataset], algorithm, CONFIG_I_PARTITIONS
            ).partitioner
            cell = {
                "algorithm": algorithm,
                "dataset": dataset,
                "best": best_partitioner,
                "heuristic": heuristic,
                "empirical": empirical,
                "general": general_choice,
            }
            for label, choice in (
                ("heuristic", heuristic),
                ("empirical", empirical),
                ("general", general_choice),
            ):
                loss = times[choice] / best_time - 1.0
                losses[label].append(loss)
                cell[f"{label}_loss%"] = round(100 * loss, 2)
            rows.append(cell)
    print(format_table(rows))

    means = {label: sum(values) / len(values) for label, values in losses.items()}
    print("\nMean loss vs the per-run optimal partitioner:")
    for label, value in means.items():
        print(f"  {label:>10}: {value * 100:5.2f}%")

    # The paper's message: tailoring to the computation recovers the
    # performance a general-case default leaves on the table.
    assert means["heuristic"] <= means["general"] + 0.005
    assert means["heuristic"] < 0.05
    # Even the simple measure-the-metric policy stays within a modest band.
    assert means["empirical"] < 0.15
