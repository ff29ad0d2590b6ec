"""E-extra — Pregel supersteps: serial array path vs shared-memory workers.

Times the reference simulator's Pregel algorithms (PR, CC, SSSP) under
the serial array-native superstep path and under the shared-memory
parallel executor at 2 and 4 workers, and reports the speedups as a JSON
document in the style of ``bench_backends.py``.  Every timed
pair is also checked for *identical* results: bit-identical vertex
values and identical ``SuperstepRecord`` counters — a speedup only
counts if the parallel path is indistinguishable from serial semantics.

The acceptance bar is a >= 3x wall-clock speedup for PageRank at 4
workers on the largest catalog dataset (follow-dec) at the paper's
128-partition granularity.  The bar is only *enforced* when the machine
actually has the cores to back it (``os.cpu_count() >= workers + 1`` —
the parent merge thread needs a core too); on smaller hosts the numbers
are still reported and the equivalence checks still gate.

Unlike the pytest-benchmark modules next to it, this harness is a plain
script so CI can exercise it cheaply::

    PYTHONPATH=src python benchmarks/bench_parallel_pregel.py --quick \
        --json-out BENCH_parallel_pregel.json

``--quick`` shrinks the sweep to one small dataset at a small granularity
and drops the speedup bar (process-pool overheads dominate at toy scale),
keeping the harness — and the equivalence checks inside it — from
silently rotting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from repro.algorithms.connected_components import connected_components
from repro.algorithms.pagerank import pagerank
from repro.algorithms.shortest_paths import choose_landmarks, shortest_paths
from repro.datasets.catalog import load_dataset
from repro.engine.parallel import engine_stats, parallel_supported, reset_engine_stats
from repro.engine.partitioned_graph import PartitionedGraph

#: Partitioner used for every run; the superstep cost, not the placement
#: quality, is what this benchmark measures.
PARTITIONER = "2D"

#: Worker counts swept against the serial baseline.
WORKER_COUNTS = (2, 4)

#: The acceptance bar for PageRank at 4 workers on the largest dataset.
PAGERANK_BAR = 3.0
BAR_WORKERS = 4


def _algorithm_runners(pgraph, iterations, seed):
    landmarks = choose_landmarks(pgraph, count=3, seed=seed + 7)
    return {
        "PR": lambda w: pagerank(pgraph, num_iterations=iterations, parallel_workers=w),
        "CC": lambda w: connected_components(
            pgraph, max_iterations=iterations, parallel_workers=w
        ),
        "SSSP": lambda w: shortest_paths(pgraph, landmarks, parallel_workers=w),
    }


def _identical(serial, parallel) -> bool:
    return (
        serial.vertex_values == parallel.vertex_values
        and serial.report.supersteps == parallel.report.supersteps
    )


def _bar_enforced(workers: int) -> bool:
    """Only hold the speedup bar when the host has cores to back it."""
    cores = os.cpu_count() or 1
    return cores >= workers + 1


def run_sweep(datasets, num_partitions, scale, seed, iterations):
    """Time every algorithm on every dataset, serial vs each worker count."""
    report = {
        "benchmark": "parallel_pregel",
        "partitioner": PARTITIONER,
        "num_partitions": num_partitions,
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "shared_memory_supported": parallel_supported(),
        "datasets": {},
        "results": [],
    }
    for name in datasets:
        graph = load_dataset(name, scale=scale, seed=seed)
        report["datasets"][name] = {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        }
        pgraph = PartitionedGraph.partition(graph, PARTITIONER, num_partitions)
        pgraph.triplets()  # shared by both paths; build outside the timings
        for algorithm, run in _algorithm_runners(pgraph, iterations, seed).items():
            started = time.perf_counter()
            serial = run(None)
            serial_seconds = time.perf_counter() - started
            row = {
                "dataset": name,
                "algorithm": algorithm,
                "serial_seconds": round(serial_seconds, 6),
                "workers": {},
            }
            for workers in WORKER_COUNTS:
                run(workers)  # warm-up: fork the pool + publish the graph once
                started = time.perf_counter()
                parallel = run(workers)
                parallel_seconds = time.perf_counter() - started
                assert _identical(serial, parallel), (
                    f"parallel path diverged from serial for {algorithm} on "
                    f"{name} at {workers} workers"
                )
                speedup = (
                    serial_seconds / parallel_seconds
                    if parallel_seconds > 0
                    else float("inf")
                )
                row["workers"][str(workers)] = {
                    "seconds": round(parallel_seconds, 6),
                    "speedup": round(speedup, 2),
                }
            report["results"].append(row)
        del pgraph  # release this dataset's executors + shm before the next
    report["engine"] = engine_stats()
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serial vs shared-memory parallel Pregel superstep benchmark"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep for CI: one dataset, 16 partitions, no speedup bar",
    )
    parser.add_argument("--scale", type=float, default=None, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--partitions", type=int, default=None)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument(
        "--json-out", default=None, help="also write the report document to this file"
    )
    args = parser.parse_args(argv)

    if not parallel_supported():
        print(
            "shared memory unavailable on this platform; nothing to benchmark",
            file=sys.stderr,
        )
        return 0

    if args.quick:
        datasets = ["youtube"]
        num_partitions = args.partitions or 16
        scale = args.scale if args.scale is not None else 0.2
        bar_dataset, bar = "youtube", None
    else:
        datasets = ["youtube", "pokec", "orkut", "follow-jul", "follow-dec"]
        num_partitions = args.partitions or 128
        scale = args.scale if args.scale is not None else 0.35
        bar_dataset, bar = "follow-dec", PAGERANK_BAR

    reset_engine_stats()
    report = run_sweep(datasets, num_partitions, scale, args.seed, args.iterations)
    print(json.dumps(report, indent=2))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    bar_row = next(
        row
        for row in report["results"]
        if row["dataset"] == bar_dataset and row["algorithm"] == "PR"
    )
    speedup = bar_row["workers"][str(BAR_WORKERS)]["speedup"]
    enforced = bar is not None and _bar_enforced(BAR_WORKERS)
    print(
        f"\n{bar_dataset!r} PR at {num_partitions} partitions, "
        f"{BAR_WORKERS} workers: {speedup:.2f}x"
        + (
            f" (acceptance bar: {bar:.0f}x)"
            if enforced
            else " (bar not enforced: "
            + ("quick mode" if bar is None else f"only {os.cpu_count()} cores")
            + ")"
        )
    )
    if enforced and speedup < bar:
        print("FAILED: parallel superstep path below the acceptance bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
