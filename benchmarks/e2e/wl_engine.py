"""``pr_dense`` and ``frontier_sparse``: the in-memory engine used two ways.

``pr_dense`` keeps every vertex active for a fixed number of supersteps
over a dense graph, on a low- and a high-communication placement: the
scan/fold/apply loop is all of the time and the cached fold plan is hot.
``frontier_sparse`` runs hundreds of supersteps with a shrinking,
data-driven frontier over a road network: per-superstep fixed costs are
all of the time.  An optimisation for one is predicted flat on the other.
"""

from __future__ import annotations

import gc
import glob
import multiprocessing
import os
from typing import Dict, List, Optional, Tuple

import oracles
from harness import Context, median
from stages import (
    ALGORITHM_SPANS,
    emit_build_metrics,
    emit_engine_counters,
    load_graph,
    staged_build,
    superstep_counts,
)
from surface import (
    PartitionedGraph,
    choose_landmarks,
    connected_components,
    pagerank,
    run_algorithm,
    shortest_paths,
)

__all__ = ["frontier_sparse", "pr_dense"]

_LANDMARK_SEED = 24


def _build(ctx: Context, graph, partitioner: str, num_partitions: int, run: int):
    """An engine-ready placement: one stable call when untraced, staged
    probes under spans when traced."""
    if ctx.trace:
        return staged_build(ctx, graph, partitioner, num_partitions, run)
    return PartitionedGraph.partition(graph, partitioner, num_partitions), None


def _timed_runs(ctx: Context, span_name: str, count: int, call, **attrs) -> Tuple[List[float], object]:
    """``count`` timed calls; the samples of the ones that succeeded and
    the last result."""
    samples: List[float] = []
    last = None
    for run in range(count):
        with ctx.tracer.span(span_name, run, **attrs) as span:
            result = ctx.attempt(f"{span_name} run {run}", call)
        if result is not None:
            span.attrs["supersteps"] = int(result.num_supersteps)
            samples.append(span.seconds)
            last = result
    return samples, last


def _edge_steps(graph, result) -> int:
    return int(graph.num_edges) * int(result.num_supersteps)


# ----------------------------------------------------------------------
# pr_dense
# ----------------------------------------------------------------------
def pr_dense(ctx: Context) -> None:
    size = ctx.size
    iterations = int(size["iterations"])
    k = int(size["partitions"])

    with ctx.tracer.span("harness.setup"):
        graph = load_graph(ctx, str(size["dataset"]), float(size["scale"]))
        placements: Dict[str, object] = {}
        built_metrics = []
        for index, partitioner in enumerate(size["partitioners"]):
            pgraph, metrics = _build(ctx, graph, partitioner, k, index)
            built_metrics.append(metrics)
            placements[partitioner] = pgraph
            # Warm-up: engine structures and the superstep-invariant fold plan.
            with ctx.tracer.span("engine.first_run", index, partitioner=partitioner):
                pagerank(pgraph, num_iterations=iterations)

    runs = ctx.reps("runs")
    samples: Dict[str, List[float]] = {}
    last: Dict[str, object] = {}
    ctx.begin_timed()
    with ctx.tracer.span(f"harness.{ctx.workload}") as timed:
        for partitioner, pgraph in placements.items():
            samples[partitioner], last[partitioner] = _timed_runs(
                ctx,
                ALGORITHM_SPANS["PR"],
                runs,
                lambda pgraph=pgraph: pagerank(pgraph, num_iterations=iterations),
                partitioner=partitioner,
                edges=graph.num_edges,
            )

    engine_runs = []
    for partitioner, result in last.items():
        if result is None:
            continue
        ctx.check_oracle(
            f"pagerank oracle on {partitioner}",
            lambda result=result: oracles.check_pagerank(
                result.vertex_values, graph.src, graph.dst, graph.vertex_ids, iterations
            ),
        )
        counts = superstep_counts(ctx, result)
        engine_runs.append((counts, graph.num_edges, graph.num_vertices))
        ctx.counts[f"{partitioner}.supersteps"] = int(result.num_supersteps)
        if counts:
            ctx.counts[f"{partitioner}.messages_local"] = counts["messages_local"]
            ctx.counts[f"{partitioner}.messages_remote"] = counts["messages_remote"]
    ctx.counts["edges"] = int(graph.num_edges)
    ctx.counts["vertices"] = int(graph.num_vertices)

    good = {p: s for p, s in samples.items() if s}
    run_seconds = sum(sum(s) for s in good.values())
    # The two placements run at different speeds; pooling their samples
    # would put the median in the gap between two clusters.
    pr_run_s = sum(median(s) for s in good.values()) / len(good) if good else None
    edge_steps = sum(len(good[p]) * _edge_steps(graph, last[p]) for p in good)
    if not ctx.trace:
        ctx.emit_common(timed.seconds)
        ctx.emit("pr_run_s", pr_run_s, sum(len(s) for s in good.values()))
        ctx.emit("edge_steps_per_s", edge_steps / run_seconds if run_seconds else None, 1)
        return

    emit_build_metrics(ctx, graph.num_edges * len(placements), built_metrics)
    first = ctx.span_seconds("engine.first_run")
    ctx.emit("engine.first_run_s", median(first), len(first))
    steps = sum(len(good[p]) * int(last[p].num_supersteps) for p in good)
    ctx.emit("engine.pr_superstep_ms", 1000.0 * run_seconds / steps if steps else None, steps)
    emit_engine_counters(ctx, engine_runs)
    serial = median(good[size["partitioners"][0]]) if size["partitioners"][0] in good else None
    _probe_parallel(ctx, graph, str(size["partitioners"][0]), k, iterations, serial)
    _probe_backends(ctx, graph, placements[size["partitioners"][0]], iterations, serial)


def _probe_parallel(ctx: Context, graph, partitioner: str, k: int, iterations: int,
                    serial: Optional[float]) -> None:
    """The shared-memory executor on ``min(2, nproc)`` workers.  Not gated:
    two workers on a shared 2-core box do not repeat within a tenth.  A
    leaked ``/dev/shm`` segment or worker process is a failure."""
    workers = min(2, os.cpu_count() or 1)

    def run_parallel():
        pgraph = PartitionedGraph.partition(graph, partitioner, k)
        with ctx.tracer.span("engine.parallel_first_run", workers=workers) as first:
            pagerank(pgraph, num_iterations=iterations, parallel_workers=workers)
        warm = []
        for run in range(int(ctx.size["probe_runs"])):
            with ctx.tracer.span("engine.parallel_run", run, workers=workers) as span:
                pagerank(pgraph, num_iterations=iterations, parallel_workers=workers)
            warm.append(span.seconds)
        return first.seconds, median(warm), len(warm)

    measured = ctx.probes.call("engine.parallel_workers", run_parallel) if workers > 1 else None
    # The executor (pool + segments) lives as long as its placement does.
    gc.collect()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
    ctx.check(
        "parallel probe left nothing behind",
        [f"leaked segment {path}" for path in glob.glob("/dev/shm/repro-shm-*")]
        + [f"worker {child.pid} still alive" for child in multiprocessing.active_children()],
    )
    first_s, warm_s, count = measured if measured else (None, None, 0)
    ctx.emit("engine.parallel_first_run_s", first_s)
    ctx.emit("engine.parallel2_pr_run_s", warm_s, count)
    ctx.emit("engine.parallel2_over_serial", warm_s / serial if warm_s and serial else None)


def _probe_backends(ctx: Context, graph, pgraph, iterations: int, serial: Optional[float]) -> None:
    """The partition-oblivious CSR kernels next to the engine on the same
    problem — the comparison ROADMAP item 5(c) asks for."""

    def build_csr() -> float:
        from repro import CSRGraph

        with ctx.tracer.span("backends.csr_build") as span:
            CSRGraph.from_graph(graph)
        return span.seconds

    def run_vectorized():
        samples = []
        for run in range(int(ctx.size["probe_runs"])):
            with ctx.tracer.span("backends.vectorized_pr", run) as span:
                run_algorithm("PR", pgraph, num_iterations=iterations, backend="vectorized")
            samples.append(span.seconds)
        return median(samples), len(samples)

    ctx.emit("backends.csr_build_s", ctx.probes.call("backends.CSRGraph", build_csr))
    measured = ctx.probes.call("backends.vectorized", run_vectorized)
    vectorized_s, count = measured if measured else (None, 0)
    ctx.emit("backends.vectorized_pr_s", vectorized_s, count)
    ctx.emit(
        "backends.vectorized_over_engine",
        vectorized_s / serial if vectorized_s and serial else None,
    )


# ----------------------------------------------------------------------
# frontier_sparse
# ----------------------------------------------------------------------
def frontier_sparse(ctx: Context) -> None:
    size = ctx.size
    partitioner, k = str(size["partitioner"]), int(size["partitions"])

    with ctx.tracer.span("harness.setup"):
        graph = load_graph(ctx, str(size["dataset"]), float(size["scale"]))
        pgraph, metrics = _build(ctx, graph, partitioner, k, 0)
        with ctx.tracer.span("algorithms.choose_landmarks"):
            # A fixed landmark seed: the grid's vertex ids are the same for every
            # --seed, so the sweep depth (and with it the work) stays put while
            # the seeded diagonals still change the graph.
            landmarks = choose_landmarks(graph, count=int(size["landmarks"]), seed=_LANDMARK_SEED)
        with ctx.tracer.span("engine.first_run", algorithm="CC"):
            connected_components(pgraph)
        with ctx.tracer.span("engine.first_run", algorithm="SSSP"):
            shortest_paths(pgraph, landmarks)

    ctx.begin_timed()
    with ctx.tracer.span(f"harness.{ctx.workload}") as timed:
        cc_samples, cc_last = _timed_runs(
            ctx, ALGORITHM_SPANS["CC"], ctx.reps("cc_runs"),
            lambda: connected_components(pgraph), edges=graph.num_edges,
        )
        sssp_samples, sssp_last = _timed_runs(
            ctx, ALGORITHM_SPANS["SSSP"], ctx.reps("sssp_runs"),
            lambda: shortest_paths(pgraph, landmarks), edges=graph.num_edges,
        )

    engine_runs = []
    if cc_last is not None:
        ctx.check_oracle(
            "component oracle",
            lambda: oracles.check_components(
                cc_last.vertex_values, graph.src, graph.dst, graph.vertex_ids
            ),
        )
    if sssp_last is not None:
        ctx.check_oracle(
            "hop-distance oracle",
            lambda: oracles.check_hop_maps(
                sssp_last.vertex_values, graph.src, graph.dst, graph.vertex_ids, landmarks
            ),
        )
    for label, result in (("cc", cc_last), ("sssp", sssp_last)):
        if result is None:
            continue
        counts = superstep_counts(ctx, result)
        engine_runs.append((counts, graph.num_edges, graph.num_vertices))
        ctx.counts[f"{label}.supersteps"] = int(result.num_supersteps)
        if counts:
            ctx.counts[f"{label}.messages_local"] = counts["messages_local"]
            ctx.counts[f"{label}.messages_remote"] = counts["messages_remote"]
    ctx.counts["edges"] = int(graph.num_edges)
    ctx.counts["landmarks"] = [int(v) for v in landmarks]

    run_seconds = sum(cc_samples) + sum(sssp_samples)
    edge_steps = sum(
        len(samples) * _edge_steps(graph, result)
        for samples, result in ((cc_samples, cc_last), (sssp_samples, sssp_last))
        if result is not None
    )
    if not ctx.trace:
        ctx.emit_common(timed.seconds)
        ctx.emit("cc_run_s", median(cc_samples) if cc_samples else None, len(cc_samples))
        ctx.emit("sssp_run_s", median(sssp_samples) if sssp_samples else None, len(sssp_samples))
        ctx.emit("edge_steps_per_s", edge_steps / run_seconds if run_seconds else None, 1)
        return

    emit_build_metrics(ctx, graph.num_edges, [metrics])
    first = ctx.span_seconds("engine.first_run")
    ctx.emit("engine.first_run_s", median(first), len(first))
    for name, samples, result in (("cc", cc_samples, cc_last), ("sssp", sssp_samples, sssp_last)):
        ctx.emit(
            f"engine.{name}_superstep_ms",
            1000.0 * median(samples) / int(result.num_supersteps) if samples else None,
            len(samples),
        )
    emit_engine_counters(ctx, engine_runs)
    ctx.emit_span_sum("algorithms.landmarks_s", "algorithms.choose_landmarks")
