"""Sessions: memoized dataset loads and partitioned-graph caching.

The paper's evaluation is a *grid* — every partitioner x dataset x
granularity x algorithm (Tables 2-3, Figures 3-6) — and most cells of
that grid share the expensive work: generating the dataset analogue and
partitioning it.  A :class:`Session` owns those shared artefacts:

* dataset loads are memoized per ``(name, scale, seed)`` (pre-built
  graphs can be registered with :meth:`Session.add_graph`);
* partitioned graphs are memoized per ``(dataset, partitioner,
  num_partitions, scale, seed)``, so a full figure-suite reproduction
  partitions each triple exactly once no matter how many algorithms and
  backends consume it;
* SSSP landmark choices are memoized per ``(dataset, count, seed)``.

Every cache uses per-key build locks, so a multi-threaded
:meth:`ExperimentPlan.run` (see :mod:`repro.session.plan`) never builds
the same placement twice and never blocks unrelated builds on each
other.  :attr:`Session.stats` exposes hit/miss accounting for tests and
``repro sweep --dry-run`` estimates.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, TypeVar, Union

from ..algorithms.shortest_paths import (
    LandmarkMatrix,
    build_landmark_matrix,
    choose_landmarks,
)
from ..core.graph import Graph
from ..core.io import PathLike
from ..datasets.catalog import load_dataset
from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.partitioned_graph import PartitionedGraph
from ..errors import AnalysisError, EngineError, ReproError, require_count
from ..partitioning.base import EdgePartitionAssignment
from ..partitioning.registry import canonical_partitioner_name
from .store import ArtifactStore, as_store

__all__ = ["CacheStats", "Session"]

_T = TypeVar("_T")


class _KeyedCache:
    """Thread-safe build-once memoization with per-key build locks.

    ``get(key, build)`` returns the cached value or runs ``build`` under a
    lock private to ``key``: concurrent requests for the same key build
    once and share the result, while different keys build in parallel.
    """

    def __init__(self) -> None:
        self._values: Dict[Hashable, object] = {}
        self._locks: Dict[Hashable, threading.Lock] = {}
        self._master = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, build: Callable[[], _T]) -> _T:
        with self._master:
            if key in self._values:
                self.hits += 1
                return self._values[key]
            lock = self._locks.setdefault(key, threading.Lock())
        with lock:
            with self._master:
                if key in self._values:
                    self.hits += 1
                    return self._values[key]
            value = build()
            with self._master:
                self._values[key] = value
                self.misses += 1
            return value

    def count_hit(self) -> None:
        """Record a hit served outside the cache (e.g. a registered graph)."""
        with self._master:
            self.hits += 1

    def peek(self, key: Hashable):
        """The cached value for ``key`` (or None), without touching the stats."""
        with self._master:
            return self._values.get(key)

    def __contains__(self, key: Hashable) -> bool:
        with self._master:
            return key in self._values

    def __len__(self) -> int:
        with self._master:
            return len(self._values)

    def evict(self, predicate: Callable[[Hashable], bool]) -> None:
        """Drop every entry whose key matches ``predicate`` (stats are kept)."""
        with self._master:
            for key in [key for key in self._values if predicate(key)]:
                del self._values[key]
                self._locks.pop(key, None)

    def clear(self) -> None:
        with self._master:
            self._values.clear()
            self._locks.clear()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting of a session's graph and partition caches.

    ``partition_hits`` / ``partition_misses`` describe the in-memory L1:
    a miss means the placement was not held in this process.  When the
    session has an on-disk :class:`~repro.session.store.ArtifactStore`
    attached, an L1 miss first consults the disk L2 — ``disk_partition_hits``
    counts placements rehydrated from disk, ``disk_partition_misses``
    placements that genuinely had to be partitioned (and were then
    persisted).  The same convention covers landmark choices and the
    completed-cell records an :class:`ExperimentPlan` resumes from.
    Registered pre-built graphs count as graph hits (they are never
    loaded by the session and never touch the disk store).
    """

    graph_hits: int
    graph_misses: int
    partition_hits: int
    partition_misses: int
    disk_partition_hits: int = 0
    disk_partition_misses: int = 0
    disk_landmark_hits: int = 0
    disk_landmark_misses: int = 0
    disk_record_hits: int = 0
    disk_record_misses: int = 0
    disk_shard_hits: int = 0
    disk_shard_misses: int = 0

    @property
    def partition_builds(self) -> int:
        """The number of placements actually partitioned (not rehydrated):
        L1 misses that the disk L2 could not answer either."""
        return self.partition_misses - self.disk_partition_hits

    @property
    def shard_builds(self) -> int:
        """Shards actually ingested (disk lookups the store could not answer)."""
        return self.disk_shard_misses

    @property
    def disk_hits(self) -> int:
        """Artifacts of any kind served from the disk store."""
        return (
            self.disk_partition_hits
            + self.disk_landmark_hits
            + self.disk_record_hits
            + self.disk_shard_hits
        )

    @property
    def disk_misses(self) -> int:
        """Disk lookups of any kind that had to rebuild (or first-run builds)."""
        return (
            self.disk_partition_misses
            + self.disk_landmark_misses
            + self.disk_record_misses
            + self.disk_shard_misses
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "graph_hits": self.graph_hits,
            "graph_misses": self.graph_misses,
            "partition_hits": self.partition_hits,
            "partition_misses": self.partition_misses,
            "disk_partition_hits": self.disk_partition_hits,
            "disk_partition_misses": self.disk_partition_misses,
            "disk_landmark_hits": self.disk_landmark_hits,
            "disk_landmark_misses": self.disk_landmark_misses,
            "disk_record_hits": self.disk_record_hits,
            "disk_record_misses": self.disk_record_misses,
            "disk_shard_hits": self.disk_shard_hits,
            "disk_shard_misses": self.disk_shard_misses,
        }


class Session:
    """Shared state behind a grid of experiments.

    ``scale`` and ``seed`` are the session's defaults for dataset
    generation; ``cluster`` and ``cost_parameters`` are the default
    simulation settings of plans opened with :meth:`plan`.  ``graphs``
    registers pre-built graphs by name.  ``store`` attaches a persistent
    :class:`~repro.session.store.ArtifactStore` (or a directory path to
    open one in): the in-memory caches become an L1 over that disk L2,
    so placements, landmark choices and completed run records survive
    the process.  Registered graphs never touch the store — their
    content is not derivable from the cache key, so a later process
    could be served the wrong placement.
    """

    def __init__(
        self,
        scale: float = 1.0,
        seed: int = 0,
        cluster: Optional[ClusterConfig] = None,
        cost_parameters: Optional[CostParameters] = None,
        graphs: Optional[Dict[str, Graph]] = None,
        store: Union[ArtifactStore, PathLike, None] = None,
    ) -> None:
        if not (math.isfinite(scale) and scale > 0):
            raise AnalysisError(f"scale must be a positive finite number, got {scale}")
        self.scale = float(scale)
        self.seed = int(seed)
        self.cluster = cluster
        self.cost_parameters = cost_parameters
        self.store = as_store(store)
        self._registered: Dict[str, Graph] = {}
        self._graphs = _KeyedCache()
        self._partitions = _KeyedCache()
        self._sharded = _KeyedCache()
        self._engine_ready = _KeyedCache()
        self._landmarks = _KeyedCache()
        self._landmark_matrices = _KeyedCache()
        self._disk_lock = threading.Lock()
        self._disk_counters: Dict[str, int] = {
            "partition_hits": 0,
            "partition_misses": 0,
            "landmark_hits": 0,
            "landmark_misses": 0,
            "record_hits": 0,
            "record_misses": 0,
            "shard_hits": 0,
            "shard_misses": 0,
        }
        self._absorbed: Dict[str, int] = {}
        if graphs:
            for name, graph in graphs.items():
                self.add_graph(name, graph)

    # ------------------------------------------------------------------
    # Disk store plumbing
    # ------------------------------------------------------------------
    def _store_for(self, dataset: str) -> Optional[ArtifactStore]:
        """The disk store, unless ``dataset`` is a registered graph (whose
        content the cache key cannot identify)."""
        if self.store is None or dataset in self._registered:
            return None
        return self.store

    def _count_disk(self, counter: str, hit: bool) -> None:
        """Session-level disk accounting (kept separate from the store's own
        counters, which a shared store would aggregate across sessions)."""
        key = f"{counter}_{'hits' if hit else 'misses'}"
        with self._disk_lock:
            self._disk_counters[key] += 1

    def absorb_stats(self, delta: Dict[str, int]) -> None:
        """Fold another session's ``CacheStats.as_dict()`` (or a delta of
        two snapshots) into this session's accounting.

        The process executor runs cells in worker sessions the parent
        never observes directly; absorbing their per-cell deltas keeps
        :attr:`stats` an honest fleet-wide picture — without it a
        process-parallel sweep would always report zero builds.
        """
        with self._disk_lock:
            for key, value in delta.items():
                self._absorbed[key] = self._absorbed.get(key, 0) + int(value)

    # ------------------------------------------------------------------
    # Graphs
    # ------------------------------------------------------------------
    def add_graph(self, name: str, graph: Graph) -> "Session":
        """Register a pre-built graph under ``name`` (bypasses the catalog).

        Re-registering the same graph object is a no-op; registering a
        *different* graph under a name the session has already served
        evicts every placement and landmark choice built from the old
        graph, so the caches can never answer for the wrong graph.
        """
        if not isinstance(graph, Graph):
            raise AnalysisError(
                f"add_graph expects a Graph, got {type(graph).__name__}"
            )
        current = self.cached_graph(name)
        if current is not None and current is not graph:
            self._partitions.evict(lambda key: key[0] == name)
            self._sharded.evict(lambda key: key[0] == name)
            self._engine_ready.evict(lambda key: key[0] == name)
            self._landmarks.evict(lambda key: key[0] == name)
            self._landmark_matrices.evict(lambda key: key[0] == name)
            self._graphs.evict(lambda key: key[0] == name)
        self._registered[name] = graph
        return self

    def adopt_graph(self, name: str, graph: Graph) -> "Session":
        """Register ``graph`` under ``name``, refusing to displace another graph.

        The empirical advisor uses this instead of :meth:`add_graph`: sharing
        a session across studies must never *silently* swap the graph every
        later study sees (and evict its placements).  Re-adopting the same
        object is a no-op; a conflicting graph raises — replace it
        explicitly with :meth:`add_graph` if that is really intended.
        """
        current = self.cached_graph(name)
        if current is not None and current is not graph:
            raise AnalysisError(
                f"session already serves a different graph named {name!r}; use a "
                f"fresh session, a distinct graph name, or replace it explicitly "
                f"with add_graph"
            )
        return self.add_graph(name, graph)

    def cached_graph(self, name: str) -> Optional[Graph]:
        """The graph currently answering to ``name`` (or None): registered
        graphs first, then previously catalog-loaded ones.  No stats impact."""
        registered = self._registered.get(name)
        if registered is not None:
            return registered
        return self._graphs.peek((name, self.scale, self.seed))

    def is_registered(self, name: str) -> bool:
        """Whether a pre-built graph was registered under ``name``.

        Registered graphs are served as-is regardless of the session's
        scale/seed; catalog loads are not (they follow the session's
        generation parameters).
        """
        return name in self._registered

    def graph(self, name: str) -> Graph:
        """The graph for ``name``: registered, cached, or loaded and cached."""
        registered = self._registered.get(name)
        if registered is not None:
            self._graphs.count_hit()
            return registered
        key = (name, self.scale, self.seed)
        return self._graphs.get(
            key, lambda: load_dataset(name, scale=self.scale, seed=self.seed)
        )

    # ------------------------------------------------------------------
    # Partitioned graphs
    # ------------------------------------------------------------------
    def _partition_key(self, dataset: str, partitioner: str, num_partitions: int):
        return (
            dataset,
            canonical_partitioner_name(partitioner),
            int(num_partitions),
            self.scale,
            self.seed,
        )

    def partitioned(
        self,
        dataset: str,
        partitioner: str,
        num_partitions: int,
        engine_ready: bool = False,
    ) -> PartitionedGraph:
        """The cached placement for ``(dataset, partitioner, num_partitions)``.

        Builds (and caches) the placement on first request; the Section 3.1
        metrics are computed inside the build lock so every consumer shares
        one metrics object.  ``engine_ready=True`` additionally materialises
        the engine-facing structures (routing table, triplet arrays) under
        a per-key lock, so concurrent algorithm cells share them instead of
        racing — and duplicating — the lazy initialisers on the shared
        ``PartitionedGraph``.  Both wrap the compiled placement the metrics
        were computed from, so metrics-only consumers can leave it off.
        """
        if num_partitions < 1:
            raise AnalysisError("num_partitions must be >= 1")
        key = self._partition_key(dataset, partitioner, num_partitions)

        def build() -> PartitionedGraph:
            graph = self.graph(dataset)
            store = self._store_for(dataset)
            pgraph = None
            placement_key = None
            if store is not None:
                placement_key = ArtifactStore.placement_key(
                    dataset, key[1], int(num_partitions), self.scale, self.seed
                )
                pgraph = self._rehydrate_placement(store, placement_key, graph)
                self._count_disk("partition", hit=pgraph is not None)
            if pgraph is None:
                pgraph = PartitionedGraph.partition(graph, key[1], num_partitions)
                if store is not None:
                    store.save_placement(
                        placement_key,
                        pgraph.assignment.partition_of,
                        pgraph.assignment.strategy_name,
                    )
            pgraph.metrics  # materialise under the build lock (shared by all cells)
            return pgraph

        pgraph = self._partitions.get(key, build)
        if engine_ready:
            self._engine_ready.get(key, lambda: self._materialize_engine_state(pgraph))
        return pgraph

    @staticmethod
    def _rehydrate_placement(
        store: ArtifactStore, placement_key: Dict[str, object], graph: Graph
    ) -> Optional[PartitionedGraph]:
        """A :class:`PartitionedGraph` rebuilt from a stored placement array,
        or None when the artifact is absent, corrupt, or inconsistent with
        the graph (wrong length / out-of-range ids degrade to a miss)."""
        loaded = store.load_placement(placement_key)
        if loaded is None:
            return None
        partition_of, strategy_name = loaded
        try:
            assignment = EdgePartitionAssignment(
                graph=graph,
                num_partitions=int(placement_key["num_partitions"]),
                partition_of=partition_of,
                strategy_name=strategy_name,
            )
        except ReproError:
            return None
        return PartitionedGraph(assignment)

    @staticmethod
    def _materialize_engine_state(pgraph: PartitionedGraph) -> bool:
        pgraph.routing
        pgraph.triplets()
        return True

    def is_partitioned(
        self, dataset: str, partitioner: str, num_partitions: int
    ) -> bool:
        """Whether the placement is already cached (no stats impact)."""
        return self._partition_key(dataset, partitioner, num_partitions) in self._partitions

    # ------------------------------------------------------------------
    # Out-of-core sharded graphs
    # ------------------------------------------------------------------
    def sharded_partition(
        self,
        dataset: str,
        partitioner: str,
        num_partitions: int,
        source: Optional["EdgeChunkSource"] = None,
        chunk_edges: Optional[int] = None,
    ) -> "ShardedGraph":
        """The memory-mapped sharded graph for one placement triple.

        The out-of-core sibling of :meth:`partitioned`: serves the shard
        from the attached :class:`~repro.session.store.ArtifactStore` when
        present (``disk_shard_hits``), otherwise streams the dataset through
        the shard writer (``disk_shard_misses``) and memoizes the mmapped
        graph in this process.  ``source`` overrides the edge stream (for
        graphs too large to materialise — e.g. a
        :class:`~repro.ooc.chunks.SyntheticChunkSource`); without it the
        catalog graph is streamed chunk-wise.  Requires a store: shards are
        disk artifacts by definition.  Registered graphs are refused for
        the same reason they bypass the placement store — their content is
        not derivable from the cache key.
        """
        from ..ooc.chunks import DEFAULT_CHUNK_EDGES, GraphChunkSource
        from ..ooc.ingest import ingest_source
        from ..ooc.mmap_graph import load_sharded_graph

        if num_partitions < 1:
            raise AnalysisError("num_partitions must be >= 1")
        if self.store is None:
            raise AnalysisError(
                "sharded_partition requires a session store (Session(store=...)); "
                "shards are on-disk artifacts"
            )
        if dataset in self._registered:
            raise AnalysisError(
                f"dataset {dataset!r} is a registered in-memory graph; shards are "
                f"keyed by (name, scale, seed) and cannot identify its content"
            )
        chunk = (
            DEFAULT_CHUNK_EDGES
            if chunk_edges is None
            else require_count(chunk_edges, "chunk_edges", 1, ValueError)
        )
        key = self._partition_key(dataset, partitioner, num_partitions)

        def build() -> "ShardedGraph":
            stream = source
            if stream is None:
                # A stored shard needs no graph: warm runs skip generating
                # it, and an edge list ingested under a name the catalog
                # lacks is served too.
                stored = load_sharded_graph(
                    self.store,
                    ArtifactStore.shard_key(dataset, *key[1:]),
                    chunk_edges=chunk,
                    count=False,
                )
                if stored is not None:
                    self.store.count_shard(True)
                    self._count_disk("shard", hit=True)
                    return stored
                stream = GraphChunkSource(self.graph(dataset), chunk_edges=chunk)
            graph, report = ingest_source(
                self.store,
                stream,
                key[1],
                int(num_partitions),
                scale=self.scale,
                seed=self.seed,
                chunk_edges=chunk,
            )
            self._count_disk("shard", hit=report.reused)
            return graph

        return self._sharded.get(key, build)

    # ------------------------------------------------------------------
    # Landmarks (SSSP)
    # ------------------------------------------------------------------
    def landmarks(self, dataset: str, count: int, seed: Optional[int] = None) -> List[int]:
        """Memoized deterministic SSSP landmark choice for ``dataset``.

        ``seed`` defaults to ``session.seed + 7``, the convention of
        ``repro run`` and ``repro sweep``.
        """
        count = require_count(count, "landmark count", 1, EngineError)
        chosen_seed = self.seed + 7 if seed is None else int(seed)
        key = (dataset, count, chosen_seed)

        def build() -> List[int]:
            store = self._store_for(dataset)
            landmark_key = None
            if store is not None:
                landmark_key = ArtifactStore.landmark_key(
                    dataset, count, chosen_seed, self.scale, self.seed
                )
                stored = store.load_landmarks(landmark_key)
                self._count_disk("landmark", hit=stored is not None)
                if stored is not None:
                    return stored
            chosen = choose_landmarks(self.graph(dataset), count=count, seed=chosen_seed)
            if store is not None:
                store.save_landmarks(landmark_key, chosen)
            return chosen

        return self._landmarks.get(key, build)

    def landmark_matrix(
        self,
        dataset: str,
        partitioner: str,
        num_partitions: int,
        count: int,
        seed: Optional[int] = None,
    ) -> LandmarkMatrix:
        """Memoized landmark-distance matrix for one served placement.

        The serving layer answers point-to-point distance queries from
        this matrix (triangle-inequality estimates), so it is built once
        per ``(placement, count, seed)`` — two Pregel sweeps — and shared
        by every subsequent query and server worker.  Landmark *choices*
        go through :meth:`landmarks` (and therefore the disk store); the
        matrix itself is in-memory only, since rebuilding it from a
        disk-rehydrated placement is exactly two engine runs.
        """
        count = require_count(count, "landmark count", 1, EngineError)
        chosen_seed = self.seed + 7 if seed is None else int(seed)
        key = (
            dataset,
            canonical_partitioner_name(partitioner),
            int(num_partitions),
            count,
            chosen_seed,
        )

        def build() -> LandmarkMatrix:
            pgraph = self.partitioned(
                dataset, partitioner, num_partitions, engine_ready=True
            )
            chosen = self.landmarks(dataset, count, seed=chosen_seed)
            return build_landmark_matrix(pgraph, chosen)

        return self._landmark_matrices.get(key, build)

    # ------------------------------------------------------------------
    # Plans and accounting
    # ------------------------------------------------------------------
    def plan(self) -> "ExperimentPlan":
        """Open a declarative :class:`ExperimentPlan` over this session."""
        from .plan import ExperimentPlan

        return ExperimentPlan(self)

    @property
    def stats(self) -> CacheStats:
        """A snapshot of the session's cache accounting (including any
        worker-session activity absorbed via :meth:`absorb_stats`)."""
        with self._disk_lock:
            disk = dict(self._disk_counters)
            absorbed = dict(self._absorbed)
        return CacheStats(
            graph_hits=self._graphs.hits + absorbed.get("graph_hits", 0),
            graph_misses=self._graphs.misses + absorbed.get("graph_misses", 0),
            partition_hits=self._partitions.hits + absorbed.get("partition_hits", 0),
            partition_misses=self._partitions.misses + absorbed.get("partition_misses", 0),
            disk_partition_hits=disk["partition_hits"] + absorbed.get("disk_partition_hits", 0),
            disk_partition_misses=disk["partition_misses"]
            + absorbed.get("disk_partition_misses", 0),
            disk_landmark_hits=disk["landmark_hits"] + absorbed.get("disk_landmark_hits", 0),
            disk_landmark_misses=disk["landmark_misses"]
            + absorbed.get("disk_landmark_misses", 0),
            disk_record_hits=disk["record_hits"] + absorbed.get("disk_record_hits", 0),
            disk_record_misses=disk["record_misses"] + absorbed.get("disk_record_misses", 0),
            disk_shard_hits=disk["shard_hits"] + absorbed.get("disk_shard_hits", 0),
            disk_shard_misses=disk["shard_misses"] + absorbed.get("disk_shard_misses", 0),
        )

    @property
    def num_cached_partitions(self) -> int:
        """How many placements the session currently holds."""
        return len(self._partitions)

    def clear(self) -> None:
        """Drop every cached graph, placement and landmark choice.

        Registered graphs stay registered; hit/miss counters are kept (they
        describe the session's history, not its current contents).
        """
        self._graphs.clear()
        self._partitions.clear()
        self._sharded.clear()
        self._engine_ready.clear()
        self._landmarks.clear()
        self._landmark_matrices.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(scale={self.scale}, seed={self.seed}, "
            f"graphs={len(self._graphs) + len(self._registered)}, "
            f"partitions={len(self._partitions)})"
        )
