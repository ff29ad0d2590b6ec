"""``serve_mixed``: the query daemon under a closed-loop mix.

Phase A is request overhead — parse, route, cache lookup, serialise — on
cheap lookups.  Phase B forces cache misses: every exact distance has a
fresh source, so it waits for the batch window and pays one multi-source
sweep.  Phase C repeats exact queries over a few hot sources and is
served from the query cache.  A final untimed burst counts how many
batches 32 simultaneous misses collapse into.
"""

from __future__ import annotations

import asyncio
import os
import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

import oracles
from harness import Context, median, percentile
from serve_client import Daemon, Reply, fetch, run_burst, run_closed_loop
from stages import load_graph

__all__ = ["serve_mixed"]

#: Phase A mix, out of 100.
_LOOKUP_MIX = (("estimate", 50), ("vertex", 20), ("neighbors", 20), ("pagerank", 10))


def _lookups(rng: random.Random, count: int, vertices: Sequence[int]) -> List[Tuple[str, str]]:
    kinds = [kind for kind, share in _LOOKUP_MIX for _ in range(share)]
    requests = []
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind == "estimate":
            path = f"/distance?source={rng.choice(vertices)}&target={rng.choice(vertices)}"
        elif kind == "vertex":
            path = f"/vertex?vertex={rng.choice(vertices)}"
        elif kind == "neighbors":
            path = f"/neighbors?vertex={rng.choice(vertices)}&limit=10"
        else:
            path = f"/pagerank/top?k={rng.choice((5, 10, 25))}"
        requests.append((kind, path))
    return requests


def _exact(rng: random.Random, sources: Sequence[int], count: int, vertices: Sequence[int]):
    return [
        ("exact", f"/distance?source={sources[i % len(sources)]}&target={rng.choice(vertices)}&exact=1")
        for i in range(count)
    ]


def serve_mixed(ctx: Context) -> None:
    size = ctx.size
    connections = min(2, os.cpu_count() or 1)
    rng = random.Random(ctx.seed)

    with ctx.tracer.span("harness.setup"):
        with ctx.tracer.span("serve.startup") as startup:
            daemon = Daemon(
                [
                    "--scale", str(size["scale"]), "--seed", str(ctx.seed),
                    "--datasets", str(size["dataset"]),
                    "--partitions", str(size["partitions"]),
                    "--landmarks", str(size["landmarks"]),
                    "--batch-window-ms", str(size["window_ms"]),
                    "--port", "0",
                ],
                log_path=f"{ctx.tmp}/daemon.log",
            )
            try:
                # The client needs the same graph (vertex ids, oracle); it is
                # generated here while the daemon preloads on the other core.
                graph = load_graph(ctx, str(size["dataset"]), float(size["scale"]))
                daemon.wait_for_banner(timeout=120.0)
                asyncio.run(daemon.wait_until_healthy(timeout=60.0))
            except BaseException:
                daemon.stop()
                raise

    try:
        _drive(ctx, daemon, graph, rng, connections, startup.seconds)
    finally:
        exit_code = daemon.stop()
    ctx.check("daemon exited cleanly", [] if exit_code == 0 else [f"exit code {exit_code}"])
    if not ctx.trace:
        # The daemon is the system under test: its peak RSS, not the client's.
        ctx.emit("peak_rss_mb", daemon.peak_rss_mb())


def _drive(ctx: Context, daemon: Daemon, graph, rng, connections: int, startup_s: float) -> None:
    size = ctx.size
    host, port = daemon.host, daemon.port
    vertices = sorted(int(v) for v in graph.vertex_ids)
    exact_count = ctx.reps("exact")
    fresh = rng.sample(vertices, min(len(vertices), exact_count + int(size["burst"])))
    miss_sources, burst_sources = fresh[:exact_count], fresh[exact_count:]
    hot = miss_sources[: int(size["hot_sources"])]
    phases = {
        "lookups": _lookups(rng, ctx.reps("lookups"), vertices),
        "exact": _exact(rng, miss_sources, len(miss_sources), vertices),
        "cached": _exact(rng, hot, ctx.reps("cached"), vertices),
    }

    replies: Dict[str, List[Reply]] = {}
    seconds: Dict[str, float] = {}
    ctx.begin_timed()
    with ctx.tracer.span(f"harness.{ctx.workload}") as timed:
        for phase, requests in phases.items():
            with ctx.tracer.span(f"serve.phase_{phase}", requests=len(requests)) as span:
                replies[phase], seconds[phase] = asyncio.run(
                    run_closed_loop(host, port, requests, connections)
                )
            for kind, _, status, _, t0, t1 in replies[phase]:
                ctx.tracer.record(f"serve.{kind}", t0, t1, parent=span, status=status)

    for phase, requests in phases.items():
        ctx.attempted += len(requests)
        bad = [reply for reply in replies[phase] if reply[2] != 200]
        bad_count = len(bad) + len(requests) - len(replies[phase])
        if bad_count:
            ctx.failed += bad_count
            ctx.failures.append(f"{phase}: {bad_count} requests did not return 200")
    _verify(ctx, graph, replies)

    def latencies(phase: str) -> List[float]:
        return [1000.0 * (t1 - t0) for _, _, status, _, t0, t1 in replies[phase] if status == 200]

    lookups, exact, cached = latencies("lookups"), latencies("exact"), latencies("cached")
    if not ctx.trace:
        ctx.emit("setup_s", ctx.setup_s)
        ctx.emit("wall_s", timed.seconds)
        ctx.emit("qps", len(lookups) / seconds["lookups"] if lookups else None, len(lookups))
        ctx.emit("latency_p50_ms", median(lookups) if lookups else None, len(lookups))
        ctx.emit("exact_p50_ms", median(exact) if exact else None, len(exact))
        return

    ctx.emit("serve.startup_s", startup_s)
    ctx.emit("serve.lookup_p99_ms", percentile(lookups, 99) if lookups else None, len(lookups))
    ctx.emit("serve.exact_p99_ms", percentile(exact, 99) if exact else None, len(exact))
    ctx.emit("serve.cached_exact_p50_ms", median(cached) if cached else None, len(cached))
    ctx.emit(
        "serve.errors",
        sum(1 for phase in replies for reply in replies[phase] if reply[2] != 200),
        sum(len(r) for r in replies.values()),
    )
    _probe_stats(ctx, host, port, burst_sources, vertices[0], len(phases["cached"]))


def _verify(ctx: Context, graph, replies: Dict[str, List[Reply]]) -> None:
    """Every exact answer against BFS; lookups against the edge arrays."""
    edges = (graph.src, graph.dst, graph.vertex_ids)
    answers = [payload for phase in ("exact", "cached") for _, _, status, payload, _, _ in replies[phase]
               if status == 200]
    ctx.check_oracle("exact distances vs BFS", lambda: oracles.check_distance_answers(answers, *edges))
    ctx.counts["edges"] = int(graph.num_edges)
    ctx.counts["requests"] = sum(len(phase) for phase in replies.values())
    ctx.counts["exact_hops_served"] = sum(int(a["distance"]) for a in answers if a.get("distance") is not None)
    ctx.check(
        "exact replies say so",
        [f"{a.get('source')}->{a.get('target')} answered by {a.get('method')!r}"
         for a in answers if a.get("method") != "exact"][:3],
    )

    ids = graph.vertex_ids
    out_degree = np.bincount(np.searchsorted(ids, graph.src), minlength=ids.size)
    in_degree = np.bincount(np.searchsorted(ids, graph.dst), minlength=ids.size)

    def lookup_problems() -> List[str]:
        problems = []
        estimates = []
        for kind, path, status, payload, _, _ in replies["lookups"]:
            if status != 200:
                continue
            if kind in ("vertex", "neighbors"):
                at = int(np.searchsorted(ids, int(payload["vertex"])))
                expected = int(out_degree[at])
                got = payload["out_degree"] if kind == "vertex" else payload["degree"]
                if int(got) != expected or (kind == "vertex" and int(payload["in_degree"]) != int(in_degree[at])):
                    problems.append(f"{path}: degree {got}, edge arrays say {expected}")
            elif kind == "estimate" and len(estimates) < 40:
                estimates.append(payload)
        # A landmark estimate is an upper bound on the true hop count.
        for payload in estimates:
            source, target = int(payload["source"]), int(payload["target"])
            hops = oracles.bfs_hops(*edges, source, towards_origin=False)
            true = int(hops[np.searchsorted(ids, target)])
            served = payload.get("distance")
            if (served is None) != (true < 0) or (served is not None and int(served) < true):
                problems.append(f"estimate {source}->{target}: served {served!r}, BFS {true}")
        return problems

    ctx.check_oracle("lookups vs edge arrays", lookup_problems)


def _probe_stats(ctx: Context, host: str, port: int, burst_sources, target: int, cached: int) -> None:
    """Counters only ``/stats`` knows.  Its JSON layout is not a stable
    surface, so every read is a probe."""

    def stats() -> Dict[str, object]:
        with ctx.tracer.span("serve.stats") as span:
            status, payload = asyncio.run(fetch(host, port, "/stats"))
        if status != 200:
            raise KeyError(f"/stats answered {status}")
        payload["_seconds"] = span.seconds
        return payload

    before = ctx.probes.call("serve.stats", stats)
    ctx.emit("serve.stats_ms", 1000.0 * before["_seconds"] if before else None)
    ctx.emit(
        "serve.engine_runs",
        ctx.probes.call("serve.stats.engine_runs", lambda: int(before["engine_runs"])) if before else None,
    )
    ctx.emit(
        "serve.cache_hit_share",
        ctx.probes.call(
            "serve.stats.query_cache", lambda: min(1.0, int(before["query_cache"]["hits"]) / cached)
        ) if before else None,
    )

    paths = [f"/distance?source={source}&target={target}&exact=1" for source in burst_sources]
    with ctx.tracer.span("serve.burst", requests=len(paths)):
        statuses = asyncio.run(run_burst(host, port, paths))
    ctx.attempted += len(paths)
    refused = sum(1 for status in statuses if status != 200)
    if refused:
        ctx.failed += refused
        ctx.failures.append(f"burst: {refused} of {len(paths)} requests did not return 200")
    after = ctx.probes.call("serve.stats", stats)
    ctx.emit(
        "serve.burst_batches",
        ctx.probes.call(
            "serve.stats.batcher",
            lambda: int(after["batcher"]["batches"]) - int(before["batcher"]["batches"]),
        ) if before and after else None,
        len(paths),
    )
