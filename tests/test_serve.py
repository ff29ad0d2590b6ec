"""The serving layer: query cache, batcher, service, router and daemon.

The HTTP tests run a real :class:`GraphQueryServer` on an ephemeral port
inside ``asyncio.run`` and speak HTTP/1.1 over raw stream connections —
the same wire path production traffic takes.
"""

import asyncio
import json
import math

import pytest

from repro.engine.partitioned_graph import PartitionedGraph
from repro.errors import AnalysisError, EngineError
from repro.serve import (
    BatchingScheduler,
    GraphQueryServer,
    GraphService,
    QueryCache,
    Router,
    ServeError,
)
from repro.serve.telemetry import LatencyHistogram, ServerTelemetry
from repro.session import Session


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _make_service(graph, name="toy", **kwargs) -> GraphService:
    session = Session(scale=1.0, seed=0, graphs={name: graph})
    kwargs.setdefault("landmark_count", 3)
    service = GraphService(session, [name], "RVC", 4, **kwargs)
    service.preload()
    return service


async def _request(host, port, path, method="GET", raw=None):
    """One HTTP exchange on a fresh connection; returns (status, payload)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if raw is not None:
            writer.write(raw)
        else:
            writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()


async def _read_response(reader):
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


def _with_server(service, scenario, window_seconds=0.01):
    """Run ``scenario(host, port, router)`` against a live daemon."""

    async def main():
        batcher = BatchingScheduler(service.run_batch, window_seconds=window_seconds)
        router = Router(service, batcher)
        server = GraphQueryServer(router, host="127.0.0.1", port=0)
        host, port = await server.start()
        try:
            return await scenario(host, port, router)
        finally:
            await server.close()

    return asyncio.run(main())


# ----------------------------------------------------------------------
# Query cache
# ----------------------------------------------------------------------
class TestQueryCache:
    def test_keys_are_canonical(self):
        assert QueryCache.key(a=1, b="x") == QueryCache.key(b="x", a=1)
        assert QueryCache.key(a=1) != QueryCache.key(a=2)

    def test_hit_and_miss_accounting(self):
        cache = QueryCache(max_entries=4)
        key = QueryCache.key(q=1)
        hit, value = cache.lookup(key)
        assert (hit, value) == (False, None)
        cache.put(key, "answer")
        hit, value = cache.lookup(key)
        assert (hit, value) == (True, "answer")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    @pytest.mark.parametrize("max_entries", [2.5, math.nan, math.inf, True, 0])
    def test_max_entries_must_be_a_positive_integer(self, max_entries):
        with pytest.raises(AnalysisError, match="max_entries"):
            QueryCache(max_entries=max_entries)

    def test_lru_evicts_least_recently_used(self):
        cache = QueryCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.lookup("a")[0]  # refresh "a": now "b" is the LRU entry
        cache.put("c", 3)
        assert cache.lookup("b") == (False, None)
        assert cache.lookup("a") == (True, 1)
        assert cache.lookup("c") == (True, 3)
        assert cache.stats()["evictions"] == 1


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_histogram_percentiles_are_ordered(self):
        histogram = LatencyHistogram()
        for ms in (1, 2, 3, 50, 200):
            histogram.record(ms / 1000.0)
        summary = histogram.as_dict()
        assert summary["count"] == 5
        assert summary["p50_ms"] <= summary["p90_ms"] <= summary["p99_ms"]
        assert summary["p99_ms"] <= summary["max_ms"] == 200.0

    def test_endpoint_error_accounting(self):
        telemetry = ServerTelemetry()
        telemetry.record("/x", 0.001, 200)
        telemetry.record("/x", 0.002, 404)
        snapshot = telemetry.snapshot()
        assert snapshot["requests_total"] == 2
        assert snapshot["endpoints"]["/x"]["errors"] == 1


# ----------------------------------------------------------------------
# Batching scheduler
# ----------------------------------------------------------------------
class TestBatchingScheduler:
    def test_concurrent_submits_coalesce_into_one_call(self):
        calls = []

        def run_batch(keys):
            calls.append(sorted(keys))
            return {key: key * 10 for key in keys}

        async def main():
            batcher = BatchingScheduler(run_batch, window_seconds=0.02)
            try:
                return await asyncio.gather(*(batcher.submit(k) for k in range(5)))
            finally:
                await batcher.close()

        results = asyncio.run(main())
        assert results == [0, 10, 20, 30, 40]
        assert calls == [[0, 1, 2, 3, 4]]

    def test_duplicate_keys_share_one_slot(self):
        calls = []

        def run_batch(keys):
            calls.append(list(keys))
            return {key: "v" for key in keys}

        async def main():
            batcher = BatchingScheduler(run_batch, window_seconds=0.02)
            try:
                return await asyncio.gather(*(batcher.submit("same") for _ in range(4)))
            finally:
                await batcher.close()

        assert asyncio.run(main()) == ["v"] * 4
        assert calls == [["same"]]
        # 4 queries, 1 batch of 1 distinct key.

    def test_max_batch_flushes_early(self):
        calls = []

        def run_batch(keys):
            calls.append(list(keys))
            return {key: key for key in keys}

        async def main():
            # A huge window: only the max_batch=3 trigger can flush the
            # first three; the fourth then rides a second flush.
            batcher = BatchingScheduler(run_batch, window_seconds=30.0, max_batch=3)
            try:
                first = asyncio.gather(*(batcher.submit(k) for k in range(3)))
                results = await asyncio.wait_for(first, timeout=5.0)
                await batcher.close()
                return results
            except BaseException:
                await batcher.close()
                raise

        assert asyncio.run(main()) == [0, 1, 2]
        assert len(calls) == 1 and sorted(calls[0]) == [0, 1, 2]

    def test_runner_failure_propagates_to_all_waiters(self):
        def run_batch(keys):
            raise RuntimeError("engine exploded")

        async def main():
            batcher = BatchingScheduler(run_batch, window_seconds=0.01)
            try:
                return await asyncio.gather(
                    *(batcher.submit(k) for k in range(3)), return_exceptions=True
                )
            finally:
                await batcher.close()

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_missing_key_in_result_is_an_engine_error(self):
        async def main():
            batcher = BatchingScheduler(lambda keys: {}, window_seconds=0.01)
            try:
                with pytest.raises(EngineError, match="no result"):
                    await batcher.submit("ghost")
            finally:
                await batcher.close()

        asyncio.run(main())

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch": value} for value in (2.5, math.nan, math.inf, True, 0)]
        + [{"window_seconds": value} for value in (math.nan, math.inf, -1.0)],
    )
    def test_invalid_configuration_rejected(self, kwargs):
        with pytest.raises(EngineError, match=next(iter(kwargs))):
            BatchingScheduler(lambda keys: {}, **kwargs)


# ----------------------------------------------------------------------
# Service semantics
# ----------------------------------------------------------------------
class TestGraphService:
    def test_batched_queries_use_one_engine_run(self, small_social_graph):
        """N concurrent exact-SSSP queries -> exactly one engine run, with
        results identical to N serial single-source runs."""
        sources = sorted(small_social_graph.vertex_ids.tolist())[:6]

        batched_service = _make_service(small_social_graph)
        runs_before = batched_service.engine_runs

        async def main():
            batcher = BatchingScheduler(batched_service.run_batch, window_seconds=0.05)
            try:
                return await asyncio.gather(
                    *(batcher.submit(("toy", source)) for source in sources)
                )
            finally:
                await batcher.close()

        batched_maps = asyncio.run(main())
        assert batched_service.engine_runs == runs_before + 1

        serial_service = _make_service(small_social_graph)
        runs_before = serial_service.engine_runs
        serial_maps = [
            serial_service.exact_distances("toy", source) for source in sources
        ]
        assert serial_service.engine_runs == runs_before + len(sources)
        assert batched_maps == serial_maps

    def test_estimates_bound_exact_distances(self, small_social_graph):
        service = _make_service(small_social_graph)
        vertices = small_social_graph.vertex_ids.tolist()
        source = vertices[0]
        exact = service.exact_distances("toy", source)
        for target in vertices[::9]:
            estimate = service.estimate_distance("toy", source, target)
            if estimate is not None:
                assert estimate >= exact[target]
        for landmark in service.matrix("toy").landmarks:
            exact = service.exact_distances("toy", landmark)
            for target in vertices[::9]:
                assert service.estimate_distance("toy", landmark, target) == exact.get(target)

    def test_component_and_degree_lookups(self, two_component_graph):
        service = _make_service(two_component_graph)
        left = service.component_of("toy", 0)
        right = service.component_of("toy", 10)
        assert left["component"] != right["component"]
        assert left["component_size"] == 3 and right["component_size"] == 2
        assert left["num_components"] == 2
        info = service.vertex_info("toy", 1)
        assert info["out_degree"] == 2 and info["in_degree"] == 2
        neighbors = service.neighbors("toy", 1, "out", limit=10)
        assert sorted(neighbors["neighbors"]) == [0, 2]

    def test_unknown_dataset_and_vertex_are_404(self, two_component_graph):
        service = _make_service(two_component_graph)
        with pytest.raises(ServeError) as excinfo:
            service.resolve("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            service.vertex_info("toy", 999)
        assert excinfo.value.status == 404

    def test_run_batch_publishes_to_query_cache(self, two_component_graph):
        service = _make_service(two_component_graph)
        service.exact_distances("toy", 0)
        hit, mapping = service.cache.lookup(service.exact_map_key("toy", 0))
        assert hit and mapping[2] == 2


# ----------------------------------------------------------------------
# HTTP daemon end to end
# ----------------------------------------------------------------------
class TestHTTPServer:
    @pytest.fixture
    def service(self, small_social_graph):
        return _make_service(small_social_graph)

    def test_query_endpoints(self, service, small_social_graph):
        vertices = sorted(small_social_graph.vertex_ids.tolist())
        a, b = vertices[0], vertices[len(vertices) // 2]

        async def scenario(host, port, router):
            status, health = await _request(host, port, "/health")
            assert status == 200 and health["status"] == "ok"

            status, estimate = await _request(
                host, port, f"/distance?source={a}&target={b}"
            )
            assert status == 200 and estimate["method"] in ("estimate", "exact")

            status, exact = await _request(
                host, port, f"/distance?source={a}&target={b}&exact=1"
            )
            assert status == 200 and exact["method"] == "exact"

            status, again = await _request(
                host, port, f"/distance?source={a}&target={b}&exact=1"
            )
            assert again["cached"] is True
            assert again["distance"] == exact["distance"]

            status, top = await _request(host, port, "/pagerank/top?k=3")
            assert status == 200 and len(top["top"]) == 3
            ranks = [row["rank"] for row in top["top"]]
            assert ranks == sorted(ranks, reverse=True)

            status, component = await _request(host, port, f"/component?vertex={a}")
            assert status == 200 and "component_size" in component

            status, vertex = await _request(host, port, f"/vertex?vertex={a}")
            assert status == 200 and vertex["degree"] >= 0

            status, neighbors = await _request(
                host, port, f"/neighbors?vertex={a}&direction=out&limit=5"
            )
            assert status == 200 and len(neighbors["neighbors"]) <= 5

        _with_server(service, scenario)

    def test_malformed_requests_get_4xx_and_daemon_survives(self, service):
        async def scenario(host, port, router):
            # Garbage on the wire -> 400 JSON, connection closed.
            status, payload = await _request(host, port, "", raw=b"NOT HTTP\r\n\r\n")
            assert status == 400 and payload["error"]["status"] == 400

            # Unknown endpoint -> 404; wrong method -> 405.
            status, payload = await _request(host, port, "/nope")
            assert status == 404
            status, payload = await _request(host, port, "/shutdown", method="GET")
            assert status == 405

            # Bad parameter types -> 400 with a JSON error body.
            status, payload = await _request(host, port, "/distance?source=x&target=1")
            assert status == 400 and "integer" in payload["error"]["message"]
            status, payload = await _request(host, port, "/pagerank/top?k=0")
            assert status == 400

            # Unknown vertex -> 404, unknown dataset -> 404.
            status, payload = await _request(
                host, port, "/distance?source=999999&target=999998"
            )
            assert status == 404
            status, payload = await _request(host, port, "/vertex?vertex=1&dataset=ghost")
            assert status == 404

            # After all that abuse the daemon still answers normally.
            status, payload = await _request(host, port, "/health")
            assert status == 200 and payload["status"] == "ok"

        _with_server(service, scenario)

    def test_concurrent_exact_distances_coalesce_over_http(
        self, service, small_social_graph
    ):
        sources = sorted(small_social_graph.vertex_ids.tolist())[:8]
        target = sources[-1]
        runs_before = service.engine_runs

        async def scenario(host, port, router):
            results = await asyncio.gather(
                *(
                    _request(host, port, f"/distance?source={s}&target={target}&exact=1")
                    for s in sources
                )
            )
            assert all(status == 200 for status, _ in results)
            stats = router.batcher.stats.as_dict()
            assert stats["queries"] == len(sources)
            assert stats["batches"] < len(sources)
            return results

        _with_server(service, scenario, window_seconds=0.05)
        # All 8 concurrent queries rode at most a couple of engine runs
        # (one per flush), never one run per query.
        assert service.engine_runs - runs_before < len(sources)

    def test_stats_payload_shape(self, service):
        async def scenario(host, port, router):
            await _request(host, port, "/health")
            status, stats = await _request(host, port, "/stats")
            assert status == 200
            for key in (
                "uptime_seconds",
                "requests_total",
                "endpoints",
                "datasets",
                "query_cache",
                "batcher",
                "engine_runs",
                "session",
            ):
                assert key in stats, key
            health = stats["endpoints"]["/health"]
            assert health["requests"] == 1
            assert set(health["latency"]) == {
                "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms",
            }
            assert stats["batcher"]["window_ms"] == pytest.approx(10.0)

        _with_server(service, scenario)

    def test_keep_alive_serves_sequential_requests(self, service):
        async def scenario(host, port, router):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for _ in range(3):
                    writer.write(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    status, payload = await _read_response(reader)
                    assert status == 200
            finally:
                writer.close()
                await writer.wait_closed()
            assert router.telemetry.endpoint("/health").requests == 3

        _with_server(service, scenario)

    def test_shutdown_endpoint_sets_event(self, service):
        async def scenario(host, port, router):
            status, payload = await _request(host, port, "/shutdown", method="POST")
            assert status == 200 and payload["status"] == "shutting down"
            assert router.shutdown_event.is_set()

        _with_server(service, scenario)
