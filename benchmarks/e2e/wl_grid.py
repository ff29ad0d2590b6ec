"""``grid_sweep``: the paper's own workload through the Session planner.

Datasets x the six paper partitioners x granularities x PR/CC/SSSP/TR,
every cell cold and every cell persisted.  Many medium cells, so the
per-cell work around the superstep loop — placement, membership, metrics,
engine build, first-run fold plans, triangle phases, store writes —
carries the time.

The traced run executes the grid twice: once through
``Session.plan().run()`` under a single span, and once by hand, calling
each layer's public functions for the same cells in the same order.  The
difference between the two is the ``session`` layer.
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Tuple

import oracles
from harness import Context, median
from stages import (
    ALGORITHM_SPANS,
    emit_build_metrics,
    emit_engine_counters,
    staged_build,
    superstep_counts,
)
from surface import (
    PAPER_PARTITIONER_NAMES,
    ArtifactStore,
    Session,
    choose_landmarks,
    run_algorithm,
)

__all__ = ["grid_sweep"]

#: Algorithms whose superstep count does not depend on the placement.
_PREGEL = ("PR", "CC", "SSSP")


def _plan(session, size):
    return (
        session.plan()
        .datasets(*size["datasets"])
        .partitioners(*PAPER_PARTITIONER_NAMES)
        .granularities(*size["granularities"])
        .algorithms(*size["algorithms"])
        .iterations(int(size["iterations"]))
    )


def _num_cells(size) -> int:
    return (
        len(size["datasets"]) * len(PAPER_PARTITIONER_NAMES)
        * len(size["granularities"]) * len(size["algorithms"])
    )


def grid_sweep(ctx: Context) -> None:
    size = ctx.size
    scale = float(size["scale"])
    store_dir = ctx.subdir("grid-store")

    with ctx.tracer.span("harness.setup"):
        session = Session(scale=scale, seed=ctx.seed, store=store_dir)
        graphs = {}
        for name in size["datasets"]:
            with ctx.tracer.span("datasets.load_dataset", dataset=name, scale=scale) as span:
                graphs[name] = session.graph(name)
                span.attrs.update(vertices=graphs[name].num_vertices, edges=graphs[name].num_edges)

    cells = _num_cells(size)
    records: List[object] = []
    replayed: Dict[Tuple[str, int, str, str], int] = {}
    built_metrics: List[object] = []
    engine_runs: List[tuple] = []
    ctx.begin_timed()
    with ctx.tracer.span(f"harness.{ctx.workload}") as timed:
        with ctx.tracer.span("session.plan_run", cells=cells) as plan_span:
            try:
                records = list(_plan(session, size).run(workers=1))
            except Exception as error:  # noqa: BLE001 - a failed sweep is 'cells' failed cells
                traceback.print_exc()
                ctx.failures.append(f"plan run: {type(error).__name__}: {error}")
        if ctx.trace:
            # The breakdown of the grid is its by-hand replay, not the plan run.
            ctx.layer_root = "harness.replay"
            replayed, built_metrics, engine_runs = _replay(ctx, graphs)

    ctx.attempted += cells
    if len(records) != cells:
        ctx.failed += abs(cells - len(records))
        ctx.failures.append(f"plan run returned {len(records)} of {cells} cells")
    _verify(ctx, session, graphs, records, replayed)

    if not ctx.trace:
        ctx.emit_common(timed.seconds)
        ctx.emit("cells_per_s", len(records) / plan_span.seconds if records else None, 1)
        return

    edges_assigned = sum(
        graphs[name].num_edges for name in size["datasets"]
    ) * len(PAPER_PARTITIONER_NAMES) * len(size["granularities"])
    emit_build_metrics(ctx, edges_assigned, built_metrics)
    first = [
        span.seconds for span in ctx.tracer.spans
        if span.name == ALGORITHM_SPANS[size["algorithms"][0]] and span.attrs.get("cold")
    ]
    ctx.emit("engine.first_run_s", median(first) if first else None, len(first))
    emit_engine_counters(ctx, engine_runs)
    for algorithm in size["algorithms"]:
        ctx.emit_span_sum(f"algorithms.{algorithm.lower()}_s", ALGORITHM_SPANS[algorithm])
    ctx.emit_span_sum("algorithms.landmarks_s", "algorithms.choose_landmarks")
    replay_layers = sum(
        span.seconds for span in ctx.tracer.spans
        if span.attrs.get("replay") and span.name != "harness.replay"
    )
    ctx.emit("session.plan_overhead_s", plan_span.seconds - replay_layers, _num_cells(size))
    _probe_rank_correlation(ctx, records)
    _probe_session(ctx, size, scale, store_dir, records)


def _replay(ctx: Context, graphs):
    """The plan's cells by hand, in the plan's order (dataset, granularity,
    algorithm, partitioner), one span per layer call."""
    size = ctx.size
    placements: Dict[Tuple[str, int, str], object] = {}
    built_metrics: List[object] = []
    engine_runs = []
    supersteps: Dict[Tuple[str, int, str, str], int] = {}
    run = 0
    with ctx.tracer.span("harness.replay", replay=True):
        for name in size["datasets"]:
            graph = graphs[name]
            # run_algorithm picks SSSP's default landmark itself; this is
            # the same call, timed on its own.
            with ctx.tracer.span("algorithms.choose_landmarks", dataset=name):
                choose_landmarks(graph, count=1, seed=7)
            for k in size["granularities"]:
                for algorithm in size["algorithms"]:
                    for partitioner in PAPER_PARTITIONER_NAMES:
                        key = (name, int(k), partitioner)
                        cold = key not in placements
                        if cold:
                            first_span = len(ctx.tracer.spans)
                            placements[key], metrics = staged_build(ctx, graph, partitioner, int(k), run)
                            built_metrics.append(metrics)
                            for span in ctx.tracer.spans[first_span:]:
                                span.attrs["replay"] = True
                        pgraph = placements[key]
                        with ctx.tracer.span(
                            ALGORITHM_SPANS[algorithm], run, replay=True, cold=cold,
                            dataset=name, partitioner=partitioner, k=int(k), edges=graph.num_edges,
                        ) as span:
                            result = ctx.attempt(
                                f"replay {algorithm} {name} {partitioner} {k}",
                                lambda: run_algorithm(
                                    algorithm, pgraph, num_iterations=int(size["iterations"])
                                ),
                            )
                        run += 1
                        if result is None:
                            continue
                        span.attrs["supersteps"] = int(result.num_supersteps)
                        supersteps[(name, int(k), algorithm, partitioner)] = int(result.num_supersteps)
                        if algorithm in _PREGEL:
                            engine_runs.append(
                                (superstep_counts(ctx, result), graph.num_edges, graph.num_vertices)
                            )
    return supersteps, built_metrics, engine_runs


def _verify(ctx: Context, session, graphs, records, replayed) -> None:
    """Oracle checks on the sweep's outputs.

    Records carry no vertex values, so each dataset's four algorithms are
    re-run once on one placement the session already holds and checked
    against the oracles; every record of a Pregel algorithm must then
    report that run's superstep count (it is placement-independent), and
    every record's partitioning metrics must match a recount from the
    placement's own edge assignment.
    """
    size = ctx.size
    iterations = int(size["iterations"])
    k = int(size["granularities"][0])
    verified_steps: Dict[Tuple[str, str], int] = {}
    for name in size["datasets"]:
        graph = graphs[name]
        pgraph = session.partitioned(name, "2D", k, engine_ready=True)
        edges = (graph.src, graph.dst, graph.vertex_ids)
        for algorithm in size["algorithms"]:
            result = ctx.attempt(
                f"verify {algorithm} on {name}",
                lambda: run_algorithm(algorithm, pgraph, num_iterations=iterations),
            )
            if result is None:
                continue
            values = result.vertex_values
            verified_steps[(name, algorithm)] = int(result.num_supersteps)
            ctx.counts[f"{name}.{algorithm}.supersteps"] = int(result.num_supersteps)
            counts = superstep_counts(ctx, result) if algorithm in _PREGEL else None
            if counts:
                ctx.counts[f"{name}.{algorithm}.messages_local"] = counts["messages_local"]
                ctx.counts[f"{name}.{algorithm}.messages_remote"] = counts["messages_remote"]
            if algorithm == "PR":
                check = lambda: oracles.check_pagerank(values, *edges, iterations)
            elif algorithm == "CC":
                check = lambda: oracles.check_components(values, *edges, rounds=iterations)
            elif algorithm == "SSSP":
                landmark = choose_landmarks(graph, count=1, seed=7)
                check = lambda: oracles.check_hop_maps(values, *edges, landmark)
            else:
                check = lambda: oracles.check_triangles(values, *edges)
            ctx.check_oracle(f"{algorithm} oracle on {name}", check)

    comm_cost = replicas = 0
    for record in records:
        label = f"{record.dataset} {record.partitioner} {record.num_partitions} {record.algorithm}"
        problems = []
        expected = verified_steps.get((record.dataset, record.algorithm))
        if record.algorithm in _PREGEL and expected is not None and record.num_supersteps != expected:
            problems.append(f"{record.num_supersteps} supersteps, verified run took {expected}")
        by_hand = replayed.get(
            (record.dataset, record.num_partitions, record.algorithm, record.partitioner)
        )
        if by_hand is not None and by_hand != record.num_supersteps:
            problems.append(f"{record.num_supersteps} supersteps, replay took {by_hand}")
        if record.algorithm == size["algorithms"][0]:
            graph = graphs[record.dataset]
            pgraph = session.partitioned(record.dataset, record.partitioner, record.num_partitions)
            reported = {
                "replicas": record.metrics.total_replicas,
                "cut": record.metrics.cut,
                "comm_cost": record.metrics.comm_cost,
                "max_partition_edges": record.metrics.max_partition_edges,
            }
            comm_cost += int(record.metrics.comm_cost)
            replicas += int(record.metrics.total_replicas)
            try:
                problems += oracles.check_placement_counts(
                    reported, graph.src, graph.dst,
                    pgraph.assignment.partition_of, record.num_partitions,
                )
            except Exception as error:  # noqa: BLE001 - an unreadable placement is a mismatch
                problems.append(f"placement unreadable: {type(error).__name__}: {error}")
        if problems:
            ctx.fail(label, "; ".join(problems))
    ctx.counts["cells"] = len(records)
    ctx.counts["comm_cost"] = comm_cost
    ctx.counts["replicas"] = replicas


def _probe_rank_correlation(ctx: Context, records) -> None:
    """``engine.sim_wall_spearman``: does the cost model rank the six
    partitioners the way measured wall-clock does?  Mean Spearman rho over
    every (dataset, algorithm, granularity) group.  Informational."""

    def measure():
        from repro.analysis.correlation import spearman

        groups: Dict[Tuple[str, str, int], List[object]] = {}
        for record in records:
            groups.setdefault((record.dataset, record.algorithm, record.num_partitions), []).append(record)
        rhos = [
            spearman([r.simulated_seconds for r in group], [r.wall_seconds for r in group])
            for group in groups.values()
            if len(group) >= 2
        ]
        return sum(rhos) / len(rhos), len(rhos)

    measured = ctx.probes.call("analysis.spearman", measure) if records else None
    rho, count = measured if measured else (None, 0)
    ctx.emit("engine.sim_wall_spearman", rho, count)


def _probe_session(ctx: Context, size, scale: float, store_dir: str, records) -> None:
    """Session and store costs too short to gate: L1 hits, artifact
    round-trips, and resuming the finished grid from disk."""
    tracer = ctx.tracer

    with tracer.span("session.resume", cells=_num_cells(size)) as resume:
        resumed = ctx.attempt(
            "resume from store",
            lambda: list(_plan(Session(scale=scale, seed=ctx.seed, store=store_dir), size).run(workers=1)),
        )
    ctx.check(
        "resumed grid equals the first run",
        [] if resumed is not None and [r.num_supersteps for r in resumed]
        == [r.num_supersteps for r in records] else ["resumed records differ"],
    )
    ctx.emit("session.resume_ms", 1000.0 * resume.seconds, _num_cells(size))
    ctx.emit(
        "session.store_bytes",
        ctx.probes.call("session.store_info", lambda: int(ArtifactStore(store_dir).info().total_bytes)),
    )

    dataset, k = str(size["datasets"][0]), int(size["granularities"][0])
    fresh = Session(scale=scale, seed=ctx.seed)
    fresh.graph(dataset)
    with tracer.span("session.partitioned_cold") as cold:
        pgraph = fresh.partitioned(dataset, "2D", k)
    hits = 200
    with tracer.span("session.partitioned_hits", calls=hits) as warm:
        for _ in range(hits):
            fresh.partitioned(dataset, "2D", k)
    ctx.emit("session.partitioned_cold_s", cold.seconds)
    ctx.emit("session.partitioned_hit_us", 1e6 * warm.seconds / hits, hits)

    def store_round_trips():
        store = ArtifactStore(ctx.subdir("probe-store"))
        rounds = 3 if ctx.smoke else 20
        timings: Dict[str, List[float]] = {
            "save_placement": [], "load_placement": [], "save_record": [], "load_record": [],
        }
        for index in range(rounds):
            key = ArtifactStore.placement_key(dataset, "2D", k, scale, ctx.seed + index)
            with tracer.span("session.store_save_placement", index) as span:
                store.save_placement(key, pgraph.assignment.partition_of, "2D")
            timings["save_placement"].append(span.seconds)
            with tracer.span("session.store_load_placement", index) as span:
                loaded = store.load_placement(key)
            timings["load_placement"].append(span.seconds)
            record_key = ArtifactStore.record_key(
                dataset, "2D", k, "PR", "reference", 10, scale, ctx.seed + index
            )
            with tracer.span("session.store_save_record", index) as span:
                store.save_record(record_key, records[0])
            timings["save_record"].append(span.seconds)
            with tracer.span("session.store_load_record", index) as span:
                record = store.load_record(record_key)
            timings["load_record"].append(span.seconds)
            if loaded is None or record is None:
                raise KeyError("artifact did not round-trip")
        return timings

    timings = ctx.probes.call("session.store_round_trips", store_round_trips) if records else None
    for name in ("save_placement", "load_placement", "save_record", "load_record"):
        samples = timings[name] if timings else []
        ctx.emit(
            f"session.store_{name}_ms",
            1000.0 * median(samples) if samples else None,
            len(samples),
        )
