"""Layer calls made stage by stage, each under a span — the traced runs' view.

An untraced run builds a placement with one ``PartitionedGraph.partition``
call and lets the engine build its structures lazily.  A traced run calls
the same layers one public function at a time so every stage gets a span:
``assign`` -> ``membership`` -> ``compute_metrics`` -> ``partitions`` /
``routing`` / ``triplets``.  Each stage is a layer probe (see
``surface.py``): if a later PR removes the name, the stage's metric reads
``None`` and the placement is still built through the stable call.
"""

from __future__ import annotations

import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from harness import Context, median
from surface import PartitionedGraph, load_dataset

__all__ = [
    "ALGORITHM_SPANS",
    "emit_build_metrics",
    "emit_engine_counters",
    "emit_import_seconds",
    "load_graph",
    "staged_build",
    "superstep_counts",
]

#: Span names of ``run_algorithm`` calls: the three Pregel algorithms run
#: in the engine's superstep loop, triangle counting in its own phases.
ALGORITHM_SPANS = {
    "PR": "engine.pregel_pr",
    "CC": "engine.pregel_cc",
    "SSSP": "engine.pregel_sssp",
    "TR": "algorithms.triangle_count",
}


def load_graph(ctx: Context, name: str, scale: float):
    with ctx.tracer.span("datasets.load_dataset", dataset=name, scale=scale) as span:
        graph = load_dataset(name, scale=scale, seed=ctx.seed)
        span.attrs.update(vertices=graph.num_vertices, edges=graph.num_edges)
    return graph


def staged_build(ctx: Context, graph, partitioner: str, num_partitions: int, run: int = 0):
    """``(pgraph, metrics)`` built one traced stage at a time; ``metrics`` is
    None when the metrics probe is missing."""
    tracer, probes = ctx.tracer, ctx.probes
    tags = {"partitioner": partitioner, "k": num_partitions, "edges": graph.num_edges}

    def assign():
        from repro import make_partitioner

        strategy = make_partitioner(partitioner)
        with tracer.span("partitioning.assign", run, **tags):
            return strategy.assign(graph, num_partitions)

    def membership(assignment):
        with tracer.span("partitioning.membership", run, **tags) as span:
            span.attrs["replicas"] = int(assignment.membership().num_pairs)

    def metrics_of(assignment):
        from repro import compute_metrics

        with tracer.span("metrics.compute_metrics", run, **tags):
            return compute_metrics(assignment)

    assignment = probes.call("partitioning.assign", assign)
    pgraph = metrics = None
    if assignment is not None:
        probes.call("partitioning.membership", lambda: membership(assignment))
        metrics = probes.call("metrics.compute_metrics", lambda: metrics_of(assignment))
        pgraph = probes.call("engine.PartitionedGraph", lambda: PartitionedGraph(assignment))
    if pgraph is None:
        with tracer.span("partitioning.partition", run, **tags):
            pgraph = PartitionedGraph.partition(graph, partitioner, num_partitions)

    def stage(name: str, build) -> None:
        def call():
            with tracer.span(name, run, **tags):
                build()

        probes.call(name, call)

    stage("engine.partitions", lambda: pgraph.partitions)
    stage("engine.routing", lambda: pgraph.routing)
    stage("engine.triplets", pgraph.triplets)
    return pgraph, metrics


def superstep_counts(ctx: Context, result) -> Optional[Dict[str, int]]:
    """Exact engine counters of one run, from its ``SuperstepRecord``s."""

    def read() -> Dict[str, int]:
        records = result.report.supersteps
        return {
            "supersteps": len(records),
            "messages_local": sum(int(r.messages_local) for r in records),
            "messages_remote": sum(int(r.messages_remote) for r in records),
            "edges_scanned": sum(int(r.edges_scanned) for r in records),
            "active_vertices": sum(int(r.active_vertices) for r in records),
        }

    return ctx.probes.call("engine.superstep_records", read)


def emit_engine_counters(ctx: Context, runs: List[Tuple[Optional[Dict[str, int]], int, int]]) -> None:
    """Publish the summed counters and the useful-work ratios of
    ``(counts, num_edges, num_vertices)`` Pregel runs."""
    seen = [(counts, edges, vertices) for counts, edges, vertices in runs if counts]
    if not seen:
        for name in ("supersteps", "messages_local", "messages_remote",
                     "active_edge_share", "active_vertex_share"):
            ctx.emit(f"engine.{name}", None, 0)
        return
    for name in ("supersteps", "messages_local", "messages_remote"):
        ctx.emit(f"engine.{name}", sum(counts[name] for counts, _, _ in seen), len(seen))
    edge_steps = sum(edges * counts["supersteps"] for counts, edges, _ in seen)
    vertex_steps = sum(vertices * counts["supersteps"] for counts, _, vertices in seen)
    ctx.emit(
        "engine.active_edge_share",
        sum(counts["edges_scanned"] for counts, _, _ in seen) / edge_steps,
        len(seen),
    )
    ctx.emit(
        "engine.active_vertex_share",
        sum(counts["active_vertices"] for counts, _, _ in seen) / vertex_steps,
        len(seen),
    )


def emit_build_metrics(ctx: Context, edges_assigned: int, metrics: List[object]) -> None:
    """The per-layer metrics the staged builds of this run produced."""
    loads = [span for span in ctx.tracer.spans if span.name == "datasets.load_dataset"]
    load_s = sum(span.seconds for span in loads)
    ctx.emit("datasets.load_s", load_s if loads else None, len(loads))
    ctx.emit(
        "datasets.gen_edges_per_s",
        sum(int(span.attrs["edges"]) for span in loads) / load_s if load_s else None,
        len(loads),
    )
    assigns = ctx.span_seconds("partitioning.assign")
    ctx.emit("partitioning.assign_s", sum(assigns) if assigns else None, len(assigns))
    ctx.emit(
        "partitioning.assign_edges_per_s",
        edges_assigned / sum(assigns) if assigns else None,
        len(assigns),
    )
    ctx.emit_span_sum("partitioning.membership_s", "partitioning.membership")
    ctx.emit_span_sum("metrics.compute_s", "metrics.compute_metrics")
    ctx.emit_span_sum("engine.build_partitions_s", "engine.partitions")
    ctx.emit_span_sum("engine.build_routing_s", "engine.routing")
    ctx.emit_span_sum("engine.build_triplets_s", "engine.triplets")
    known = [m for m in metrics if m is not None]
    ctx.emit(
        "partitioning.replication_factor",
        sum(float(m.replication_factor) for m in known) / len(known) if known else None,
        len(known),
    )
    ctx.emit("metrics.comm_cost", sum(int(m.comm_cost) for m in known) if known else None, len(known))


def emit_import_seconds(ctx: Context) -> None:
    """``cli.import_s``: a fresh interpreter importing the package."""

    def once() -> float:
        with ctx.tracer.span("cli.import_repro") as span:
            subprocess.run([sys.executable, "-c", "import repro"], check=True, timeout=120)
        return span.seconds

    samples = [once() for _ in range(2 if ctx.smoke else 5)]
    ctx.emit("cli.import_s", median(samples), len(samples))
