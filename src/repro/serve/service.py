"""Query execution behind the serve daemon: preloaded graphs + handlers.

A :class:`GraphService` owns everything query handlers need and nothing
HTTP-shaped: the :class:`~repro.session.Session` (whose
:class:`~repro.session.store.ArtifactStore` makes restarts warm), the
preloaded :class:`~repro.engine.partitioned_graph.PartitionedGraph` per
dataset, the precomputed :class:`~repro.algorithms.shortest_paths.LandmarkMatrix`
for triangle-inequality distance estimates, and lazily-computed full
PageRank / connected-components results that point lookups slice into.

All methods are synchronous and thread-safe; the router calls the cheap
ones directly on the event loop and ships the engine-bound ones
(:meth:`run_batch`, the lazy PR/CC builds) to worker threads.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.connected_components import connected_components
from ..algorithms.pagerank import pagerank
from ..algorithms.shortest_paths import LandmarkMatrix, multi_source_distances
from ..engine.partitioned_graph import PartitionedGraph
from ..errors import EngineError
from ..session.session import Session
from .cache import QueryCache
from .protocol import ServeError

__all__ = ["GraphService", "SSSP_KIND"]

#: Queries whose per-source exact-distance maps land in the query cache.
SSSP_KIND = "sssp-exact"


class GraphService:
    """Preloaded graph state plus the point-query handlers of the daemon."""

    def __init__(
        self,
        session: Session,
        datasets: Sequence[str],
        partitioner: str,
        num_partitions: int,
        landmark_count: int = 5,
        landmark_seed: Optional[int] = None,
        pagerank_iterations: int = 10,
        cache: Optional[QueryCache] = None,
        engine_workers: Optional[int] = None,
    ) -> None:
        if not datasets:
            raise EngineError("at least one dataset is required")
        if engine_workers is not None and int(engine_workers) < 1:
            raise EngineError("engine_workers must be >= 1")
        self.session = session
        self.datasets = [str(name) for name in datasets]
        self.partitioner = partitioner
        self.num_partitions = int(num_partitions)
        self.landmark_count = int(landmark_count)
        self.landmark_seed = landmark_seed
        self.pagerank_iterations = int(pagerank_iterations)
        self.engine_workers = None if engine_workers is None else int(engine_workers)
        self.cache = cache if cache is not None else QueryCache()
        self._pgraphs: Dict[str, PartitionedGraph] = {}
        self._matrices: Dict[str, LandmarkMatrix] = {}
        self._pagerank: Dict[str, Dict[int, float]] = {}
        self._components: Dict[str, Tuple[Dict[int, int], Dict[int, int]]] = {}
        self._lazy_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._state_lock = threading.Lock()
        self._engine_runs = 0

    # ------------------------------------------------------------------
    # Preloading
    # ------------------------------------------------------------------
    def preload(self) -> List[Dict[str, object]]:
        """Load, partition and landmark-index every configured dataset.

        Returns one summary row per dataset (vertex/edge counts, landmark
        count, matrix bytes, wall seconds) for startup logging.  With a
        session store attached, placements and landmark choices come off
        disk on warm restarts.
        """
        summaries = []
        for name in self.datasets:
            started = time.perf_counter()
            pgraph = self.session.partitioned(
                name, self.partitioner, self.num_partitions, engine_ready=True
            )
            matrix = self.session.landmark_matrix(
                name,
                self.partitioner,
                self.num_partitions,
                count=self.landmark_count,
                seed=self.landmark_seed,
            )
            if self.engine_workers is not None and self.engine_workers > 1:
                # Publish the graph into the shared-memory registry now —
                # the executor's worker pool forks here, on the main
                # thread, before the server's event loop and batcher
                # threads start, and every exact-SSSP batch sweep then
                # attaches instead of paying first-query setup latency.
                from ..engine.parallel import ParallelPregelExecutor, parallel_supported

                if parallel_supported():
                    ParallelPregelExecutor.for_graph(pgraph, self.engine_workers)
            with self._state_lock:
                self._pgraphs[name] = pgraph
                self._matrices[name] = matrix
                self._engine_runs += 2  # one backward + one forward sweep
            summaries.append(
                {
                    "dataset": name,
                    "vertices": pgraph.graph.num_vertices,
                    "edges": pgraph.graph.num_edges,
                    "partitioner": pgraph.strategy_name,
                    "num_partitions": pgraph.num_partitions,
                    "landmarks": matrix.num_landmarks,
                    "matrix_bytes": matrix.nbytes,
                    "seconds": round(time.perf_counter() - started, 3),
                }
            )
        return summaries

    # ------------------------------------------------------------------
    # Shared lookups
    # ------------------------------------------------------------------
    @property
    def default_dataset(self) -> str:
        return self.datasets[0]

    @property
    def engine_runs(self) -> int:
        """How many Pregel/aggregate engine invocations the service has made."""
        with self._state_lock:
            return self._engine_runs

    def _count_engine_run(self) -> None:
        with self._state_lock:
            self._engine_runs += 1

    def resolve(self, dataset: Optional[str]) -> str:
        """Map an optional ``dataset`` query parameter to a preloaded name."""
        if dataset is None:
            return self.default_dataset
        if dataset not in self._pgraphs:
            raise ServeError(
                f"dataset {dataset!r} is not served (loaded: {self.datasets})",
                status=404,
            )
        return dataset

    def pgraph(self, dataset: str) -> PartitionedGraph:
        try:
            return self._pgraphs[dataset]
        except KeyError:
            raise ServeError(f"dataset {dataset!r} is not served", status=404)

    def matrix(self, dataset: str) -> LandmarkMatrix:
        return self._matrices[self.resolve(dataset)]

    def _vertex_index(self, dataset: str, vertex: int) -> int:
        """Dense CSR index of ``vertex`` (404 when unknown).

        The landmark matrix and the CSR view index the same sorted
        ``vertex_ids`` array, so one lookup serves both.
        """
        try:
            return self.matrix(dataset).index_of(vertex)
        except EngineError:
            raise ServeError(
                f"vertex {vertex} is not in dataset {dataset!r}", status=404
            ) from None

    def _lazy_lock(self, dataset: str, what: str) -> threading.Lock:
        key = (dataset, what)
        with self._state_lock:
            return self._lazy_locks.setdefault(key, threading.Lock())

    def graph_summaries(self) -> Dict[str, Dict[str, object]]:
        """Per-dataset descriptors for the ``/stats`` payload."""
        out = {}
        for name, pgraph in self._pgraphs.items():
            matrix = self._matrices[name]
            out[name] = {
                "vertices": pgraph.graph.num_vertices,
                "edges": pgraph.graph.num_edges,
                "partitioner": pgraph.strategy_name,
                "num_partitions": pgraph.num_partitions,
                "landmarks": matrix.num_landmarks,
                "replication_factor": round(pgraph.metrics.replication_factor, 3),
            }
        return out

    def engine_summary(self) -> Dict[str, object]:
        """Parallel-engine telemetry for the ``/stats`` payload.

        Reports the configured worker count plus the process-wide
        :func:`~repro.engine.parallel.engine_stats` snapshot (live
        executors, shared-memory segments/bytes, and the fraction of
        supersteps that actually fanned out).
        """
        from ..engine.parallel import engine_stats

        summary = engine_stats()
        summary["configured_workers"] = self.engine_workers or 1
        return summary

    # ------------------------------------------------------------------
    # Distance queries
    # ------------------------------------------------------------------
    def estimate_distance(self, dataset: str, source: int, target: int) -> Optional[int]:
        """Triangle-inequality upper bound over the landmark matrix (no
        engine work), or None when no landmark connects the pair."""
        matrix = self.matrix(dataset)
        try:
            return matrix.estimate(source, target)
        except EngineError as exc:
            raise ServeError(str(exc), status=404) from None

    def exact_map_key(self, dataset: str, source: int) -> str:
        """Cache key of the exact per-source distance map."""
        return QueryCache.key(
            kind=SSSP_KIND,
            dataset=dataset,
            source=int(source),
            partitioner=self.partitioner,
            num_partitions=self.num_partitions,
        )

    def run_batch(self, keys: List[Hashable]) -> Dict[Hashable, Dict[int, int]]:
        """Resolve a batch of ``(dataset, source)`` keys with one
        multi-source frontier sweep per dataset.

        This is the ``run_batch`` callable of the
        :class:`~repro.serve.batcher.BatchingScheduler`; it runs on the
        batcher's engine thread.  Every computed per-source map is also
        published to the query cache so repeat queries skip the engine
        entirely.  A map is rendered from its source's column of the sweep,
        and all maps of one batch share their vertex-id key objects.
        """
        by_dataset: Dict[str, List[int]] = {}
        for dataset, source in keys:
            by_dataset.setdefault(dataset, []).append(int(source))
        results: Dict[Hashable, Dict[int, int]] = {}
        for dataset, sources in by_dataset.items():
            pgraph = self.pgraph(dataset)
            vertex_ids = pgraph.graph.vertex_ids
            known = np.isin(sources, vertex_ids).tolist()
            valid = [s for s, ok in zip(sources, known) if ok]
            missing = [s for s, ok in zip(sources, known) if not ok]
            if valid:
                sweep = multi_source_distances(
                    pgraph, valid, parallel_workers=self.engine_workers
                )
                self._count_engine_run()
                ids = vertex_ids.tolist()
                for j, source in enumerate(sweep.columns):
                    column = sweep.values[:, j]
                    reached = np.flatnonzero(np.isfinite(column))
                    hops = column[reached].astype(np.int64).tolist()
                    mapping = dict(zip([ids[i] for i in reached.tolist()], hops))
                    results[(dataset, source)] = mapping
                    self.cache.put(self.exact_map_key(dataset, source), mapping)
            for source in missing:
                # Resolved per-key by the router as a 404; an exception here
                # would fail the whole batch.
                results[(dataset, source)] = {}
        return results

    def exact_distances(self, dataset: str, source: int) -> Dict[int, int]:
        """The exact distance map of one source, bypassing the batcher
        (used by tests and by synchronous callers)."""
        result = self.run_batch([(dataset, int(source))])
        return result[(dataset, int(source))]

    # ------------------------------------------------------------------
    # PageRank / components
    # ------------------------------------------------------------------
    def pagerank_ranks(self, dataset: str) -> Dict[int, float]:
        """The full PageRank vector (computed once per dataset, cached)."""
        dataset = self.resolve(dataset)
        with self._lazy_lock(dataset, "pagerank"):
            ranks = self._pagerank.get(dataset)
            if ranks is None:
                result = pagerank(
                    self.pgraph(dataset),
                    num_iterations=self.pagerank_iterations,
                    parallel_workers=self.engine_workers,
                )
                self._count_engine_run()
                ranks = self._pagerank[dataset] = result.vertex_values
        return ranks

    def top_pagerank(self, dataset: str, k: int) -> List[Dict[str, object]]:
        """The ``k`` highest-ranked vertices, best first."""
        ranks = self.pagerank_ranks(dataset)
        top = heapq.nlargest(int(k), ranks.items(), key=lambda kv: (kv[1], -kv[0]))
        return [{"vertex": vertex, "rank": round(rank, 6)} for vertex, rank in top]

    def _component_state(self, dataset: str) -> Tuple[Dict[int, int], Dict[int, int]]:
        dataset = self.resolve(dataset)
        with self._lazy_lock(dataset, "components"):
            state = self._components.get(dataset)
            if state is None:
                pgraph = self.pgraph(dataset)
                result = connected_components(
                    pgraph,
                    max_iterations=pgraph.graph.num_vertices + 1,
                    parallel_workers=self.engine_workers,
                )
                self._count_engine_run()
                labels = result.vertex_values
                sizes = dict(Counter(labels.values()))
                state = self._components[dataset] = (labels, sizes)
        return state

    def component_of(self, dataset: str, vertex: int) -> Dict[str, object]:
        """The weakly-connected component label (and size) of ``vertex``."""
        labels, sizes = self._component_state(dataset)
        if vertex not in labels:
            raise ServeError(
                f"vertex {vertex} is not in dataset {dataset!r}", status=404
            )
        component = labels[vertex]
        return {
            "vertex": int(vertex),
            "component": component,
            "component_size": sizes[component],
            "num_components": len(sizes),
        }

    # ------------------------------------------------------------------
    # Degrees and neighborhoods
    # ------------------------------------------------------------------
    def vertex_info(self, dataset: str, vertex: int) -> Dict[str, object]:
        """Degrees of one vertex (CSR lookups, no dict materialisation)."""
        dataset = self.resolve(dataset)
        index = self._vertex_index(dataset, vertex)
        csr = self.pgraph(dataset).graph.csr()
        out_degree = int(csr.out_degrees[index])
        in_degree = int(csr.in_degrees[index])
        return {
            "vertex": int(vertex),
            "out_degree": out_degree,
            "in_degree": in_degree,
            "degree": out_degree + in_degree,
        }

    def neighbors(
        self, dataset: str, vertex: int, direction: str = "out", limit: int = 100
    ) -> Dict[str, object]:
        """Successors/predecessors of one vertex, truncated to ``limit``."""
        if direction not in ("out", "in"):
            raise ServeError(f"direction must be 'out' or 'in', got {direction!r}")
        dataset = self.resolve(dataset)
        index = self._vertex_index(dataset, vertex)
        csr = self.pgraph(dataset).graph.csr()
        dense = csr.out_neighbors(index) if direction == "out" else csr.in_neighbors(index)
        ids = csr.vertex_ids[dense]
        total = int(ids.size)
        return {
            "vertex": int(vertex),
            "direction": direction,
            "degree": total,
            "truncated": total > int(limit),
            "neighbors": [int(v) for v in ids[: int(limit)].tolist()],
        }
