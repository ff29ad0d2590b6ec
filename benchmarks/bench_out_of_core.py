"""E-extra — out-of-core pipeline: bounded-RSS ingest + PageRank over shards.

Two gates, both enforced:

1. **Bit-identity** (small graph): for every stateful streaming
   partitioner (Greedy, HDRF, Fennel), chunked ingest must produce the
   exact placements of the whole-array path, and PageRank over the
   memory-mapped shards must return bit-identical vertex values and
   ``SuperstepRecord`` counters.

2. **Bounded memory** (big graph): generate a synthetic edge stream
   whose in-memory footprint (``num_edges * 16`` bytes, the engine's
   ``estimated_size_bytes``) is at least 10x a configured budget, ingest
   it chunk by chunk and run PageRank over the shards — and the
   process's peak RSS growth (``resource.getrusage`` high-water mark
   relative to a baseline captured just before the big run) must stay
   under that budget.  ``--chunk-edges`` is the knob that makes the
   bound hold: every stage touches O(chunk) edges, never O(edges).

Unlike the pytest-benchmark modules next to it, this harness is a plain
script so CI can exercise it cheaply::

    PYTHONPATH=src python benchmarks/bench_out_of_core.py --quick \
        --json-out BENCH_out_of_core.json

``--quick`` shrinks the budget (and with it the generated graph) so the
run fits a CI minute while keeping the 10x ratio — and therefore the
claim — intact.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from typing import Dict, List

import numpy as np

from repro.algorithms.pagerank import pagerank
from repro.datasets.catalog import load_dataset
from repro.engine.partitioned_graph import PartitionedGraph
from repro.ooc import GraphChunkSource, SyntheticChunkSource, ingest_source
from repro.session.store import ArtifactStore

#: Stateful streaming partitioners covered by the bit-identity gate.
IDENTITY_PARTITIONERS = ("Greedy", "HDRF", "Fennel")

#: Partitioner for the big run; stateless, so ingest state stays O(vertices).
BIG_RUN_PARTITIONER = "2D"

#: The generated graph must be at least this many times the budget.
SIZE_RATIO = 10

#: Safety margin over the 10x floor when sizing the synthetic stream.
SIZE_SLACK = 1.05

#: Every edge costs 16 bytes in memory (two int64 columns) — keep in
#: sync with ``repro.core.properties.estimated_size_bytes``.
BYTES_PER_EDGE = 16


def _peak_rss_bytes() -> int:
    """The process's lifetime peak RSS; ru_maxrss is KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _superstep_rows(report) -> List[Dict[str, object]]:
    return [vars(record) for record in report.supersteps]


def _shard_is_compiled_partition(trip, pid: int, ooc) -> bool:
    """A shard partition holds the in-memory placement's partition ``pid``:
    the same edges, as slots relative to the partition's first slot."""
    first = trip.slot_bounds[pid]
    start, stop = trip.edge_bounds[pid], trip.edge_bounds[pid + 1]
    local_src, local_dst = ooc.local_triplets()
    return (
        ooc.num_edges == stop - start
        and np.array_equal(trip.endpoint_slot[2 * start:2 * stop:2] - first, local_src)
        and np.array_equal(trip.endpoint_slot[2 * start + 1:2 * stop:2] - first, local_dst)
    )


def run_identity_gate(scale: float, seed: int, chunk_edges: int) -> List[Dict[str, object]]:
    """Gate 1: chunked results == in-memory results, partitioner by partitioner."""
    graph = load_dataset("roadnet-pa", scale=scale, seed=seed)
    rows = []
    for name in IDENTITY_PARTITIONERS:
        pgraph = PartitionedGraph.partition(graph, name, 8)
        expected = pagerank(pgraph, num_iterations=5)
        workdir = tempfile.mkdtemp(prefix="repro-ooc-identity-")
        try:
            store = ArtifactStore(workdir)
            sharded, report = ingest_source(
                store,
                GraphChunkSource(graph, chunk_edges=chunk_edges),
                name,
                8,
                scale=scale,
                seed=seed,
                chunk_edges=chunk_edges,
            )
            actual = pagerank(sharded, num_iterations=5)
            trip = pgraph.triplets()
            placements_equal = all(
                _shard_is_compiled_partition(trip, pid, ooc)
                for pid, ooc in enumerate(sharded.partitions)
            )
            values_equal = actual.vertex_values == expected.vertex_values
            records_equal = _superstep_rows(actual.report) == _superstep_rows(
                expected.report
            )
            sharded.release()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        row = {
            "partitioner": name,
            "placements_identical": placements_equal,
            "values_identical": values_equal,
            "superstep_records_identical": records_equal,
            "ingest_seconds": round(report.elapsed_seconds, 3),
        }
        rows.append(row)
        status = "ok" if all(
            (placements_equal, values_equal, records_equal)
        ) else "MISMATCH"
        print(f"  identity {name:>7}: {status}", flush=True)
    return rows


def run_bounded_memory_gate(
    budget_mib: int, seed: int, chunk_edges: int, iterations: int
) -> Dict[str, object]:
    """Gate 2: ingest + PageRank a >= 10x-budget graph under the budget."""
    budget_bytes = budget_mib * 1024 * 1024
    num_edges = int(SIZE_RATIO * SIZE_SLACK * budget_bytes / BYTES_PER_EDGE)
    # Dense on purpose: the (vertex, partition) membership table is
    # O(vertices * partitions) and stays resident at run time by design,
    # so the bench keeps that term small and lets the *edge* volume carry
    # the 10x claim.
    num_vertices = max(1024, num_edges // 8192)
    num_partitions = 64
    source = SyntheticChunkSource(
        num_vertices,
        num_edges,
        seed=seed,
        skew=2.0,
        name="ooc-bench",
        chunk_edges=chunk_edges,
    )
    dataset_bytes = num_edges * BYTES_PER_EDGE
    print(
        f"  big run: {num_edges:,} edges ({dataset_bytes / 2**20:.0f} MiB "
        f"in-memory) vs a {budget_mib} MiB budget "
        f"({dataset_bytes / budget_bytes:.1f}x), chunk={chunk_edges:,}",
        flush=True,
    )

    baseline_rss = _peak_rss_bytes()
    workdir = tempfile.mkdtemp(prefix="repro-ooc-bench-")
    try:
        store = ArtifactStore(workdir)
        ingest_start = time.perf_counter()
        sharded, report = ingest_source(
            store,
            source,
            BIG_RUN_PARTITIONER,
            num_partitions,
            seed=seed,
            chunk_edges=chunk_edges,
        )
        ingest_seconds = time.perf_counter() - ingest_start
        run_start = time.perf_counter()
        result = pagerank(sharded, num_iterations=iterations)
        run_seconds = time.perf_counter() - run_start
        sharded.release()
        num_values = len(result.vertex_values)
        supersteps = result.num_supersteps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss = _peak_rss_bytes()
    growth = peak_rss - baseline_rss
    within_budget = growth <= budget_bytes
    print(
        f"  ingest {ingest_seconds:.1f}s + pagerank {run_seconds:.1f}s "
        f"({supersteps} supersteps over {num_values:,} vertices); "
        f"RSS growth {growth / 2**20:.1f} MiB vs budget {budget_mib} MiB "
        f"-> {'ok' if within_budget else 'OVER BUDGET'}",
        flush=True,
    )
    return {
        "budget_mib": budget_mib,
        "dataset_mib": round(dataset_bytes / 2**20, 1),
        "size_ratio": round(dataset_bytes / budget_bytes, 2),
        "num_edges": num_edges,
        "num_vertices": num_vertices,
        "num_partitions": num_partitions,
        "chunk_edges": chunk_edges,
        "replication_factor": round(report.replication_factor, 3),
        "ingest_seconds": round(ingest_seconds, 2),
        "pagerank_seconds": round(run_seconds, 2),
        "pagerank_supersteps": supersteps,
        "baseline_rss_mib": round(baseline_rss / 2**20, 1),
        "peak_rss_mib": round(peak_rss / 2**20, 1),
        "rss_growth_mib": round(growth / 2**20, 1),
        "within_budget": within_budget,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--budget-mib",
        type=int,
        default=None,
        help="memory budget in MiB (default: 256, or 48 with --quick)",
    )
    parser.add_argument(
        "--chunk-edges",
        type=int,
        default=None,
        help="edges per chunk for ingest and execution "
        "(default: 131072 with --quick, 262144 otherwise)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json-out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    budget_mib = args.budget_mib or (48 if args.quick else 256)
    # The knob that makes the memory bound hold: every pipeline stage is
    # O(chunk), so a tight quick budget gets a proportionally small chunk.
    chunk_edges = args.chunk_edges or (131_072 if args.quick else 262_144)
    iterations = 3 if args.quick else 5
    identity_scale = 0.3 if args.quick else 1.0

    print("bit-identity gate (chunked vs in-memory):", flush=True)
    identity_rows = run_identity_gate(identity_scale, args.seed, chunk_edges=97)
    print("bounded-memory gate:", flush=True)
    big_run = run_bounded_memory_gate(
        budget_mib, args.seed, chunk_edges, iterations
    )

    identity_ok = all(
        row["placements_identical"]
        and row["values_identical"]
        and row["superstep_records_identical"]
        for row in identity_rows
    )
    passed = identity_ok and big_run["within_budget"]
    document = {
        "benchmark": "out_of_core",
        "quick": args.quick,
        "identity": identity_rows,
        "big_run": big_run,
        "passed": passed,
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}", flush=True)
    if not passed:
        print("FAILED: see the gates above", file=sys.stderr, flush=True)
        return 1
    print("passed: results bit-identical, peak RSS within budget", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
