"""E-extra — Execution backends: reference simulator vs CSR/numpy kernels.

Times every algorithm (PR, CC, TR, SSSP) on every synthetic catalog
dataset under both registered backends and reports the speedups as a JSON
document (one record per dataset x algorithm, plus the per-dataset CSR
build cost).  The paper's cost model lives only in the ``reference``
backend; this benchmark quantifies what the ``vectorized`` backend buys
for real workloads: the acceptance bar is a >= 10x PageRank speedup on
the largest catalog dataset.  (Since the simulator's own supersteps went
array-native the margin is ~20x rather than the ~100x it enjoyed over
the scalar loop.)
"""

from __future__ import annotations

import json
import time

import pytest

from repro.algorithms.registry import run_algorithm
from repro.algorithms.shortest_paths import choose_landmarks
from repro.engine.partitioned_graph import PartitionedGraph

from bench_utils import print_header

ALGORITHMS = ["PR", "CC", "TR", "SSSP"]

#: Partitioner/granularity used for the reference runs.  The vectorized
#: backend ignores partitioning, and the partition count only changes the
#: simulator's bookkeeping overhead, so a moderate granularity keeps the
#: sweep honest and fast.
PARTITIONER = "2D"
NUM_PARTITIONS = 32


@pytest.fixture(scope="module")
def partitioned_graphs(all_graphs):
    return {
        name: PartitionedGraph.partition(graph, PARTITIONER, NUM_PARTITIONS)
        for name, graph in all_graphs.items()
    }


def _sweep(all_graphs, partitioned_graphs, bench_seed):
    report = {
        "benchmark": "backends",
        "partitioner": PARTITIONER,
        "num_partitions": NUM_PARTITIONS,
        "datasets": {},
        "results": [],
    }
    for name, graph in all_graphs.items():
        pgraph = partitioned_graphs[name]
        started = time.perf_counter()
        graph.csr()  # build (and cache) the CSR view once, timed separately
        report["datasets"][name] = {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "csr_build_seconds": round(time.perf_counter() - started, 6),
        }
        landmarks = choose_landmarks(graph, count=3, seed=bench_seed + 7)
        for algorithm in ALGORITHMS:
            kwargs = {"num_iterations": 10}
            if algorithm == "SSSP":
                kwargs["landmarks"] = landmarks
            reference = run_algorithm(algorithm, pgraph, **kwargs)
            vectorized = run_algorithm(algorithm, pgraph, backend="vectorized", **kwargs)
            assert set(vectorized.vertex_values) == set(reference.vertex_values)
            speedup = (
                reference.wall_seconds / vectorized.wall_seconds
                if vectorized.wall_seconds > 0
                else float("inf")
            )
            report["results"].append(
                {
                    "dataset": name,
                    "algorithm": algorithm,
                    "reference_seconds": round(reference.wall_seconds, 6),
                    "vectorized_seconds": round(vectorized.wall_seconds, 6),
                    "speedup": round(speedup, 1),
                }
            )
    return report


def test_backend_speedups(benchmark, all_graphs, partitioned_graphs, bench_seed):
    """Reference vs vectorized wall-clock across the full catalog."""
    report = benchmark.pedantic(
        _sweep, args=(all_graphs, partitioned_graphs, bench_seed), rounds=1, iterations=1
    )
    print_header("Backend speedups — reference simulator vs vectorized kernels")
    print(json.dumps(report, indent=2))
    benchmark.extra_info["backend_report"] = report

    largest = max(all_graphs, key=lambda name: all_graphs[name].num_edges)
    pr_largest = next(
        row
        for row in report["results"]
        if row["dataset"] == largest and row["algorithm"] == "PR"
    )
    print(
        f"\nLargest dataset {largest!r}: PageRank speedup "
        f"{pr_largest['speedup']:.0f}x (acceptance bar: 10x)"
    )
    assert pr_largest["speedup"] >= 10.0

    # Since the simulator's supersteps went array-native the backend's win
    # is no longer universal: for TR and SSSP both sides are numpy kernels
    # now, and the backend's CSR build / full-matrix relaxation rounds can
    # lose to the simulator's masked updates on some datasets.  PageRank
    # and CC must still beat the simulator everywhere (the backend skips
    # the per-superstep cost-model accounting entirely); TR and SSSP only
    # carry a same-order-of-magnitude sanity floor.
    slower = [
        row
        for row in report["results"]
        if row["speedup"] < 1.0 and row["algorithm"] in ("PR", "CC")
    ]
    assert not slower, f"vectorized slower than reference for: {slower}"
    way_slower = [row for row in report["results"] if row["speedup"] < 0.25]
    assert not way_slower, f"vectorized far behind reference for: {way_slower}"
