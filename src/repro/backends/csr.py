"""Compressed-sparse-row view of a :class:`~repro.core.graph.Graph`.

The dict-returning :class:`Graph` accessors (``out_degrees()``,
``adjacency()``) are far too slow for bulk execution.  :class:`CSRGraph`
compacts the (possibly sparse, 64-bit) vertex ids into dense indices
``0..n-1`` and materialises the edge list in both orientations:

* ``out_indptr`` / ``out_indices`` — successors of each vertex, i.e. the
  classic CSR of the adjacency matrix;
* ``in_indptr`` / ``in_indices`` — predecessors of each vertex (CSC of
  the same matrix, or CSR of the reversed graph).

Neighbour lists are sorted within each row, which the triangle kernel
exploits for merge-style intersections.  Duplicate edges and self-loops
are preserved exactly as :class:`Graph` stores them; kernels that need
the canonical simple undirected view use :meth:`CSRGraph.canonical_csr`.

Instances are built once per graph and cached via :meth:`Graph.csr`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["CSRGraph"]


class CSRGraph:
    """Dense-index CSR representation of a directed multigraph."""

    def __init__(
        self,
        vertex_ids: np.ndarray,
        src_idx: np.ndarray,
        dst_idx: np.ndarray,
    ) -> None:
        self.vertex_ids = vertex_ids
        self.src_idx = src_idx
        self.dst_idx = dst_idx
        n = int(vertex_ids.size)
        self.num_vertices = n
        self.num_edges = int(src_idx.size)

        self.out_degrees = np.bincount(src_idx, minlength=n).astype(np.int64)
        self.in_degrees = np.bincount(dst_idx, minlength=n).astype(np.int64)

        order = np.lexsort((dst_idx, src_idx))
        self.out_indptr = _indptr_from_degrees(self.out_degrees)
        self.out_indices = dst_idx[order]

        order = np.lexsort((src_idx, dst_idx))
        self.in_indptr = _indptr_from_degrees(self.in_degrees)
        self.in_indices = src_idx[order]

        self._canonical: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._canonical_edges: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph) -> "CSRGraph":
        """Build the CSR view of ``graph`` (prefer ``graph.csr()``, which caches)."""
        ids = np.asarray(graph.vertex_ids, dtype=np.int64)
        src_idx = np.searchsorted(ids, graph.src)
        dst_idx = np.searchsorted(ids, graph.dst)
        return cls(ids, src_idx, dst_idx)

    # ------------------------------------------------------------------
    def index_of(self, vertex_ids) -> np.ndarray:
        """Map original vertex ids to dense indices."""
        return np.searchsorted(self.vertex_ids, np.asarray(vertex_ids, dtype=np.int64))

    def out_neighbors(self, index: int) -> np.ndarray:
        """Sorted dense successor indices of one vertex."""
        return self.out_indices[self.out_indptr[index] : self.out_indptr[index + 1]]

    def in_neighbors(self, index: int) -> np.ndarray:
        """Sorted dense predecessor indices of one vertex."""
        return self.in_indices[self.in_indptr[index] : self.in_indptr[index + 1]]

    def canonical_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct undirected simple edges as ``(lo, hi)`` with ``lo < hi``.

        Self-loops and duplicates are dropped — the canonicalisation
        GraphX's TriangleCount applies.  Cached.
        """
        if self._canonical_edges is None:
            lo = np.minimum(self.src_idx, self.dst_idx)
            hi = np.maximum(self.src_idx, self.dst_idx)
            keep = lo != hi
            lo, hi = lo[keep], hi[keep]
            if lo.size:
                stacked = np.unique(np.stack([lo, hi], axis=1), axis=0)
                lo, hi = stacked[:, 0], stacked[:, 1]
            self._canonical_edges = (lo, hi)
        return self._canonical_edges

    def canonical_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR of the canonical undirected simple view (cached).

        Both directions of every :meth:`canonical_edges` pair are present.
        Returns ``(indptr, indices)`` with each row sorted.
        """
        if self._canonical is None:
            lo, hi = self.canonical_edges()
            rows = np.concatenate([lo, hi])
            cols = np.concatenate([hi, lo])
            order = np.lexsort((cols, rows))
            degrees = np.bincount(rows, minlength=self.num_vertices)
            self._canonical = (_indptr_from_degrees(degrees), cols[order])
        return self._canonical

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(vertices={self.num_vertices}, edges={self.num_edges})"


def _indptr_from_degrees(degrees: np.ndarray) -> np.ndarray:
    indptr = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr
