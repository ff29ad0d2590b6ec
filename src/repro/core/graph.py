"""Directed property-graph substrate.

The :class:`Graph` class is the in-memory edge-list representation used by
every other subsystem (partitioners, the BSP engine, dataset generators).
It intentionally mirrors the GraphX data model from the paper: a graph is a
bag of directed edges identified by 64-bit integer vertex ids; the vertex
set is the union of all edge endpoints plus any explicitly supplied
isolated vertices.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphValidationError

__all__ = ["Graph"]


def _read_only(array: np.ndarray) -> np.ndarray:
    """A zero-copy view of ``array`` that refuses writes (``array`` keeps its flags)."""
    view = array.view()
    view.setflags(write=False)
    return view


class Graph:
    """A directed multigraph stored as parallel ``src``/``dst`` arrays.

    Parameters
    ----------
    src, dst:
        Parallel sequences of non-negative integer vertex ids.  Each pair
        ``(src[i], dst[i])`` is one directed edge.  Duplicate edges are
        preserved (GraphX keeps them too).
    vertices:
        Optional explicit vertex ids.  Endpoints of edges are always part
        of the vertex set; ids listed here that touch no edge become
        isolated vertices.
    name:
        Optional human-readable dataset name used in reports.
    """

    def __init__(
        self,
        src: Sequence[int],
        dst: Sequence[int],
        vertices: Optional[Sequence[int]] = None,
        name: str = "",
    ) -> None:
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        if src_arr.ndim != 1 or dst_arr.ndim != 1:
            raise GraphValidationError("src and dst must be one-dimensional")
        if src_arr.shape[0] != dst_arr.shape[0]:
            raise GraphValidationError(
                "src and dst must have the same length "
                f"(got {src_arr.shape[0]} and {dst_arr.shape[0]})"
            )
        if src_arr.size and (src_arr.min() < 0 or dst_arr.min() < 0):
            raise GraphValidationError("vertex ids must be non-negative")

        self._src = _read_only(src_arr)
        self._dst = _read_only(dst_arr)
        self.name = name
        # Derived views are cached per instance: the edge arrays are
        # read-only views (the caller's own arrays stay writable), so
        # recomputation can never change the answer.  Degree/adjacency
        # accessors hand out copies so callers may mutate what they receive.
        self._degree_cache: dict = {}
        self._adjacency_cache: dict = {}
        self._csr_cache = None
        self._triangles_cache = None

        endpoint_ids = np.concatenate([src_arr, dst_arr]) if src_arr.size else np.empty(0, np.int64)
        if vertices is not None:
            extra = np.asarray(list(vertices), dtype=np.int64)
            if extra.size and extra.min() < 0:
                raise GraphValidationError("vertex ids must be non-negative")
            endpoint_ids = np.concatenate([endpoint_ids, extra])
        self._vertex_ids = _read_only(np.unique(endpoint_ids))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        vertices: Optional[Sequence[int]] = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from an iterable of ``(src, dst)`` pairs."""
        pairs = list(edges)
        if pairs:
            src, dst = zip(*pairs)
        else:
            src, dst = (), ()
        return cls(src, dst, vertices=vertices, name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def src(self) -> np.ndarray:
        """Source vertex id of every edge (read-only view)."""
        return self._src

    @property
    def dst(self) -> np.ndarray:
        """Destination vertex id of every edge (read-only view)."""
        return self._dst

    @property
    def vertex_ids(self) -> np.ndarray:
        """Sorted array of all vertex ids (read-only view)."""
        return self._vertex_ids

    @property
    def num_vertices(self) -> int:
        """Number of distinct vertices."""
        return int(self._vertex_ids.size)

    @property
    def num_edges(self) -> int:
        """Number of directed edges (duplicates included)."""
        return int(self._src.size)

    def edge_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as plain ``(src, dst)`` tuples."""
        for s, d in zip(self._src.tolist(), self._dst.tolist()):
            yield (s, d)

    def edge_set(self) -> frozenset:
        """Return the set of distinct ``(src, dst)`` pairs."""
        return frozenset(zip(self._src.tolist(), self._dst.tolist()))

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "graph"
        return f"Graph({label!r}, vertices={self.num_vertices}, edges={self.num_edges})"

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def out_degrees(self) -> dict:
        """Return ``{vertex_id: out-degree}`` for every vertex (zeros included)."""
        return self._degree_map("out", self._src)

    def in_degrees(self) -> dict:
        """Return ``{vertex_id: in-degree}`` for every vertex (zeros included)."""
        return self._degree_map("in", self._dst)

    def degrees(self) -> dict:
        """Return ``{vertex_id: total degree}`` (in + out) for every vertex."""
        out = self.out_degrees()
        for v, d in self.in_degrees().items():
            out[v] += d
        return out

    def out_degree_array(self) -> np.ndarray:
        """Out-degree of every vertex in ``vertex_ids`` order (int64,
        read-only, cached)."""
        return self._degree_array("out", self._src)

    def _degree_array(self, key: str, endpoints: np.ndarray) -> np.ndarray:
        cached = self._degree_cache.get(key)
        if cached is None:
            counts = np.bincount(
                np.searchsorted(self._vertex_ids, endpoints), minlength=self.num_vertices
            )
            cached = self._degree_cache[key] = _read_only(counts.astype(np.int64))
        return cached

    def _degree_map(self, key: str, endpoints: np.ndarray) -> dict:
        degrees = self._degree_array(key, endpoints)
        return dict(zip(self._vertex_ids.tolist(), degrees.tolist()))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def canonicalized(self) -> "Graph":
        """Return an undirected view: endpoints sorted, duplicates and self-loops removed.

        This mirrors how GraphX's TriangleCount canonicalises the graph
        before counting.
        """
        if not self.num_edges:
            return Graph([], [], vertices=self._vertex_ids, name=self.name)
        lo = np.minimum(self._src, self._dst)
        hi = np.maximum(self._src, self._dst)
        keep = lo != hi
        stacked = np.stack([lo[keep], hi[keep]], axis=1)
        if stacked.size:
            stacked = np.unique(stacked, axis=0)
            return Graph(stacked[:, 0], stacked[:, 1], vertices=self._vertex_ids, name=self.name)
        return Graph([], [], vertices=self._vertex_ids, name=self.name)

    def adjacency(self, direction: str = "out") -> dict:
        """Return an adjacency map ``{vertex: set(neighbours)}``.

        ``direction`` is ``"out"`` (successors), ``"in"`` (predecessors) or
        ``"both"`` (union of the two).
        """
        if direction not in ("out", "in", "both"):
            raise GraphValidationError(f"unknown direction {direction!r}")
        cached = self._adjacency_cache.get(direction)
        if cached is None:
            cached = {int(v): set() for v in self._vertex_ids.tolist()}
            for s, d in zip(self._src.tolist(), self._dst.tolist()):
                if direction in ("out", "both"):
                    cached[s].add(d)
                if direction in ("in", "both"):
                    cached[d].add(s)
            self._adjacency_cache[direction] = cached
        return {v: set(neighbours) for v, neighbours in cached.items()}

    def csr(self):
        """Return the :class:`~repro.backends.csr.CSRGraph` view of this graph.

        The compressed-sparse-row view (both out- and in-orientations) is
        built once and cached on the instance; it is the input type of the
        vectorized execution backend.
        """
        if self._csr_cache is None:
            from ..backends.csr import CSRGraph

            self._csr_cache = CSRGraph.from_graph(self)
        return self._csr_cache

    def triangles(self):
        """Return the :class:`~repro.algorithms.triangle_count.GraphTriangles`
        of this graph: its canonical edges, neighbour-set sizes and set
        intersections, which depend on the edges alone.

        Built once and cached on the instance (and freed with it), so the
        triangle count of each placement only does the per-partition
        accounting.
        """
        if self._triangles_cache is None:
            from ..algorithms.triangle_count import GraphTriangles

            self._triangles_cache = GraphTriangles.from_graph(self)
        return self._triangles_cache
