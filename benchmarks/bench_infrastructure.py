"""E10 — Section 4 infrastructure study (configurations ii / iii / iv).

The paper upgrades the network from 1 Gbps to 40 Gbps (configuration iii)
and then moves shuffle storage from HDFS-on-HDD to local SSDs
(configuration iv), measuring PageRank on the largest dataset (follow-dec)
at 256 partitions.  It reports 15% and 20% average time reductions, and
concludes that a good partitioner matters *more* on better infrastructure.
"""

from __future__ import annotations

from repro import Session
from repro.engine.cluster import INFRASTRUCTURE_CONFIGS, paper_cluster
from repro.engine.partitioned_graph import PartitionedGraph
from repro.algorithms.pagerank import pagerank

from bench_utils import print_header
from conftest import CONFIG_II_PARTITIONS


def test_infrastructure_network_and_storage(benchmark, all_graphs, bench_scale):
    """Reproduce the configuration (ii)/(iii)/(iv) comparison for PageRank on follow-dec."""

    def run():
        plan = (
            Session(graphs={"follow-dec": all_graphs["follow-dec"]})
            .plan()
            .datasets("follow-dec")
            .partitioners("2D")
            .granularities(CONFIG_II_PARTITIONS)
            .algorithms("PR")
        )
        return {
            label: plan.cluster(cluster).run()[0].simulated_seconds
            for label, cluster in INFRASTRUCTURE_CONFIGS.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(f"Section 4 — infrastructure study (follow-dec, scale={bench_scale})")
    config_ii, config_iii, config_iv = results.values()
    speedup_iii = 1.0 - config_iii / config_ii
    speedup_iv = 1.0 - config_iv / config_ii
    for label, seconds in results.items():
        print(
            f"  {label:30s} {seconds:8.4f}s  "
            f"({(1.0 - seconds / config_ii) * 100:5.1f}% faster than config ii)"
        )

    assert config_iii < config_ii
    assert config_iv < config_iii
    assert speedup_iii > 0.05
    assert speedup_iv > speedup_iii
    assert speedup_iv < 0.6


def test_infrastructure_partitioner_gap_grows(benchmark, all_graphs):
    """On faster infrastructure the relative gap between partitioners grows.

    This is the paper's closing observation: "selecting a good partitioner
    has a bigger impact on performance for better infrastructure".
    """

    def gaps():
        graph = all_graphs["follow-dec"]
        result = {}
        for label, cluster in (
            ("1gbps-hdd", paper_cluster(network_gbps=1.0, storage="hdd")),
            ("40gbps-ssd", paper_cluster(network_gbps=40.0, storage="ssd")),
        ):
            best = PartitionedGraph.partition(graph, "2D", CONFIG_II_PARTITIONS)
            worst = PartitionedGraph.partition(graph, "RVC", CONFIG_II_PARTITIONS)
            best_time = pagerank(best, num_iterations=10, cluster=cluster).simulated_seconds
            worst_time = pagerank(worst, num_iterations=10, cluster=cluster).simulated_seconds
            result[label] = (worst_time - best_time) / worst_time
        return result

    values = benchmark.pedantic(gaps, rounds=1, iterations=1)
    print("\nRelative gap between best (2D) and worst (RVC) partitioner:")
    for label, gap in values.items():
        print(f"  {label:12s}: {gap * 100:5.1f}%")
    assert values["40gbps-ssd"] > 0.0
    assert values["1gbps-hdd"] > 0.0
