"""``ooc_stream``: chunked ingest into mmap shards, then supersteps over them.

Writes sit beside reads on purpose: the stateless 2D ingest (assign,
spill, finalise), the warm re-ingest (verify-on-load disk hit), PageRank
streamed partition by partition out of the mmapped shards, and the
stateful HDRF ingest, whose ``begin_stream``/``assign_chunk`` path costs
an order of magnitude more per edge.  The in-memory engine does nothing
here.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

import oracles
from harness import Context, median, own_peak_rss_mb
from stages import emit_engine_counters, superstep_counts
from surface import ArtifactStore, SyntheticChunkSource, ingest_source, pagerank

__all__ = ["ooc_stream"]


def _source(ctx: Context, stateful: bool, name: str) -> SyntheticChunkSource:
    size = ctx.size
    prefix = "stateful_" if stateful else ""
    return SyntheticChunkSource(
        int(size[prefix + "vertices"]),
        int(size[prefix + "edges"]),
        seed=ctx.seed + (1 if stateful else 0),
        skew=2.0,
        name=name,
        chunk_edges=int(size[prefix + "chunk_edges"]),
    )


def _ingest_rounds(ctx: Context, store, stateful: bool, strategy: str, warm: bool):
    """Cold-ingest the same stream ``ingests`` times under fresh shard keys
    (optionally re-ingesting each warm); returns the cold seconds, the warm
    seconds and the last ``(sharded graph, report)``."""
    size = ctx.size
    prefix = "stateful_" if stateful else ""
    chunk_edges = int(size[prefix + "chunk_edges"])
    k = int(size["partitions"])
    cold: List[float] = []
    hits: List[float] = []
    last = None
    for run in range(ctx.reps(prefix + "ingests")):
        source = _source(ctx, stateful, f"e2e-{strategy.lower()}-{run}")
        tags = {"partitioner": strategy, "edges": source.num_edges, "k": k}

        def ingest(source=source):
            return ingest_source(
                store, source, strategy, k, seed=ctx.seed, chunk_edges=chunk_edges
            )

        with ctx.tracer.span("ooc.ingest_source", run, cold=True, **tags) as span:
            outcome = ctx.attempt(f"cold {strategy} ingest {run}", ingest)
        if outcome is None:
            continue
        ctx.check(
            f"cold {strategy} ingest {run} wrote a new shard of every edge",
            _report_problems(outcome[1], source.num_edges, reused=False),
        )
        cold.append(span.seconds)
        last = outcome
        if warm:
            with ctx.tracer.span("ooc.ingest_source", run, cold=False, **tags) as span:
                again = ctx.attempt(f"warm {strategy} ingest {run}", ingest)
            if again is not None:
                ctx.check(
                    f"warm {strategy} ingest {run} was served from disk",
                    _report_problems(again[1], source.num_edges, reused=True),
                )
                hits.append(span.seconds)
    return cold, hits, last


def _report_problems(report, num_edges: int, reused: bool) -> List[str]:
    problems = []
    if int(report.num_edges) != num_edges:
        problems.append(f"report counts {report.num_edges} edges, the stream has {num_edges}")
    if bool(report.reused) != reused:
        problems.append(f"reused={report.reused}, expected {reused}")
    return problems


def ooc_stream(ctx: Context) -> None:
    size = ctx.size
    iterations = int(size["pr_iterations"])

    with ctx.tracer.span("harness.setup"):
        store = ArtifactStore(ctx.subdir("ooc-store"))
        parse_path = _write_edge_list(ctx) if ctx.trace else None

    rss_before = own_peak_rss_mb()
    ctx.begin_timed()
    with ctx.tracer.span(f"harness.{ctx.workload}") as timed:
        cold, hits, stateless = _ingest_rounds(ctx, store, False, "2D", warm=True)
        pr_samples: List[float] = []
        pr_last = None
        if stateless is not None:
            sharded = stateless[0]
            for run in range(ctx.reps("pr_runs")):
                with ctx.tracer.span("ooc.stream_pagerank", run, edges=int(size["edges"])) as span:
                    result = ctx.attempt(
                        f"streamed pagerank {run}",
                        lambda: pagerank(sharded, num_iterations=iterations),
                    )
                if result is not None:
                    span.attrs["supersteps"] = int(result.num_supersteps)
                    pr_samples.append(span.seconds)
                    pr_last = result
        stateful_cold, _, stateful = _ingest_rounds(ctx, store, True, "HDRF", warm=False)
    rss_after = own_peak_rss_mb()

    edges = int(size["edges"])
    stateful_edges = int(size["stateful_edges"])
    for label, outcome, is_stateful in (("2D", stateless, False), ("HDRF", stateful, True)):
        if outcome is not None:
            _verify_shard(ctx, label, outcome, _source(ctx, is_stateful, "oracle"))
    if pr_last is not None:
        src, dst = _materialise(_source(ctx, False, "oracle"))
        ctx.check_oracle(
            "pagerank oracle over the shards",
            lambda: oracles.check_pagerank(
                pr_last.vertex_values, src, dst, np.unique(np.concatenate((src, dst))), iterations
            ),
        )
        ctx.counts["pr.supersteps"] = int(pr_last.num_supersteps)
    counts = superstep_counts(ctx, pr_last) if pr_last is not None else None
    if counts:
        ctx.counts["pr.messages_local"] = counts["messages_local"]
        ctx.counts["pr.messages_remote"] = counts["messages_remote"]

    pr_seconds = sum(pr_samples)
    if not ctx.trace:
        ctx.emit_common(timed.seconds)
        ctx.emit("ingest_edges_per_s", edges / median(cold) if cold else None, len(cold))
        ctx.emit(
            "stateful_ingest_edges_per_s",
            stateful_edges / median(stateful_cold) if stateful_cold else None,
            len(stateful_cold),
        )
        ctx.emit("pr_run_s", median(pr_samples) if pr_samples else None, len(pr_samples))
        ctx.emit(
            "edge_steps_per_s",
            len(pr_samples) * edges * int(pr_last.num_supersteps) / pr_seconds if pr_seconds else None,
            1,
        )
        return

    vertices = int(stateless[1].num_vertices) if stateless is not None else 0
    emit_engine_counters(ctx, [(counts, edges, vertices)])
    ctx.emit(
        "ooc.stream_pr_superstep_ms",
        1000.0 * median(pr_samples) / int(pr_last.num_supersteps) if pr_samples else None,
        len(pr_samples),
    )
    ctx.emit("ooc.write_shards_s", median(cold) if cold else None, len(cold))
    ctx.emit("ooc.load_shards_s", median(hits) if hits else None, len(hits))
    ctx.emit("ooc.rss_growth_mb", rss_after - rss_before)
    ctx.emit(
        "ooc.shard_bytes",
        ctx.probes.call("session.store_info", lambda: int(store.info().total_bytes)),
    )
    reports = [outcome[1] for outcome in (stateless, stateful) if outcome is not None]
    ctx.emit(
        "partitioning.replication_factor",
        sum(float(r.replication_factor) for r in reports) / len(reports) if reports else None,
        len(reports),
    )
    source_s = _probe_source(ctx)
    assign_s = _probe_assign(ctx, False, "2D", "ooc.assign_edges_per_s")
    _probe_assign(ctx, True, "HDRF", "partitioning.stream_assign_edges_per_s")
    # Derived, not measured: what is left of an ingest once reading the
    # stream and placing its edges are taken out — spilling and finalising.
    ctx.emit(
        "ooc.spill_finalise_s",
        median(cold) - source_s - assign_s if cold and source_s and assign_s else None,
    )
    _probe_parse(ctx, parse_path)
    _probe_stream_over_inmem(ctx, stateful, iterations)


def _materialise(source) -> tuple:
    chunks = list(source.chunks())
    return (
        np.concatenate([src for src, _ in chunks]),
        np.concatenate([dst for _, dst in chunks]),
    )


def _verify_shard(ctx: Context, label: str, outcome, source) -> None:
    """The shards must hold exactly the stream's edges, and the report's
    replica count must equal a recount from the shards themselves."""
    sharded, report = outcome
    src, dst = _materialise(source)

    def read_shards() -> Dict[str, object]:
        pairs = []
        replicas = 0
        totals = []
        for partition in sharded.partitions:
            local_src, local_dst = partition.local_triplets()
            ids = np.asarray(partition.vertex_ids)
            pairs.append(ids[np.asarray(local_src)] * (1 << 32) + ids[np.asarray(local_dst)])
            if partition.num_edges:
                replicas += int(np.unique(np.concatenate((local_src, local_dst))).size)
            totals.append(int(partition.num_edges))
        sharded.release()
        return {"pairs": np.sort(np.concatenate(pairs)), "replicas": replicas, "totals": totals}

    shards = ctx.probes.call("ooc.shard_partitions", read_shards)
    if shards is None:
        return
    problems = []
    if not np.array_equal(shards["pairs"], np.sort(src * (1 << 32) + dst)):
        problems.append("the shards do not hold the stream's edge multiset")
    if shards["replicas"] != int(report.num_replicas):
        problems.append(f"report counts {report.num_replicas} replicas, the shards hold {shards['replicas']}")
    ctx.check(f"{label} shard contents", problems)
    ctx.counts[f"{label}.shard_edge_totals"] = shards["totals"]
    ctx.counts[f"{label}.replicas"] = shards["replicas"]
    ctx.counts[f"{label}.vertices"] = int(report.num_vertices)


# ----------------------------------------------------------------------
# Layer probes (traced runs only)
# ----------------------------------------------------------------------
def _write_edge_list(ctx: Context) -> str:
    """A SNAP-style text file for the parser probe, written during set-up."""
    count = int(ctx.size["parse_edges"])
    rng = np.random.default_rng(ctx.seed)
    pairs = rng.integers(0, int(ctx.size["vertices"]), size=(count, 2))
    path = os.path.join(ctx.subdir("edge-lists"), "parse-probe.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# e2e parse probe\n")
        handle.write("\n".join(f"{a}\t{b}" for a, b in pairs.tolist()))
        handle.write("\n")
    return path


def _probe_source(ctx: Context) -> Optional[float]:
    source = _source(ctx, False, "probe")
    with ctx.tracer.span("ooc.source_chunks", edges=source.num_edges) as span:
        seen = sum(int(src.size) for src, _ in source.chunks())
    ctx.emit("ooc.source_edges_per_s", seen / span.seconds if span.seconds else None)
    return span.seconds


def _probe_assign(ctx: Context, stateful: bool, strategy: str, metric: str) -> Optional[float]:
    """``begin_stream().assign_chunk`` over pre-generated chunks alone."""
    source = _source(ctx, stateful, "probe")
    chunks = list(source.chunks())

    def assign() -> float:
        from repro import make_partitioner

        assigner = make_partitioner(strategy).begin_stream(int(ctx.size["partitions"]), source.num_edges)
        with ctx.tracer.span("partitioning.assign_chunks", partitioner=strategy, edges=source.num_edges) as span:
            for src, dst in chunks:
                assigner.assign_chunk(src, dst)
            assigner.finish()
        return span.seconds

    seconds = ctx.probes.call(f"partitioning.begin_stream[{strategy}]", assign)
    ctx.emit(metric, source.num_edges / seconds if seconds else None)
    return seconds


def _probe_parse(ctx: Context, path: Optional[str]) -> None:
    def parse() -> float:
        from repro.ooc import EdgeListChunkSource

        source = EdgeListChunkSource(path, chunk_edges=int(ctx.size["stateful_chunk_edges"]))
        with ctx.tracer.span("ooc.parse_edge_list") as span:
            seen = sum(int(src.size) for src, _ in source.chunks())
        span.attrs["edges"] = seen
        return seen / span.seconds

    ctx.emit("ooc.parse_edges_per_s", ctx.probes.call("ooc.EdgeListChunkSource", parse))


def _probe_stream_over_inmem(ctx: Context, stateful, iterations: int) -> None:
    """Streamed vs in-memory array supersteps over the same mmapped shards."""

    def compare() -> float:
        sharded = stateful[0]
        pagerank(sharded, num_iterations=iterations)
        with ctx.tracer.span("ooc.stream_pagerank_probe") as streamed:
            pagerank(sharded, num_iterations=iterations)
        if not sharded.stream_supersteps:
            raise AttributeError("stream_supersteps is already off")
        sharded.stream_supersteps = False
        try:
            pagerank(sharded, num_iterations=iterations)
            with ctx.tracer.span("engine.pregel_pr", probe="inmem-over-shards") as inmem:
                pagerank(sharded, num_iterations=iterations)
        finally:
            sharded.stream_supersteps = True
        return streamed.seconds / inmem.seconds

    ratio = ctx.probes.call("ooc.stream_supersteps", compare) if stateful is not None else None
    ctx.emit("ooc.stream_over_inmem", ratio)
