"""A single edge partition: the unit of work of the BSP engine.

Mirrors GraphX's ``EdgePartition``: the edges assigned to the partition
plus the list of vertices that are referenced by those edges (the local
vertex mirror set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = ["EdgePartition"]


@dataclass
class EdgePartition:
    """Edges and mirrored vertices of one partition."""

    partition_id: int
    src: np.ndarray
    dst: np.ndarray
    vertex_ids: Optional[np.ndarray] = field(default=None)

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if self.vertex_ids is None:
            endpoints = (
                np.concatenate([self.src, self.dst]) if self.src.size else np.empty(0, np.int64)
            )
            self.vertex_ids = np.unique(endpoints)
        else:
            self.vertex_ids = np.asarray(self.vertex_ids, dtype=np.int64)
        # Derived triplet views are cached: the edge arrays are immutable
        # after construction, so recomputation can never change the answer.
        self._edge_pairs: Optional[Tuple[tuple, tuple]] = None
        self._local_triplets: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def num_edges(self) -> int:
        """Number of edges stored in this partition."""
        return int(self.src.size)

    @property
    def num_vertices(self) -> int:
        """Number of distinct vertices mirrored into this partition."""
        return int(self.vertex_ids.size)

    def edge_pairs(self) -> Tuple[tuple, tuple]:
        """Return the partition's edges as two sequences ``(src, dst)``.

        Materialised once and cached — callers iterate these every
        superstep — as tuples, so no caller can corrupt the shared view.
        """
        if self._edge_pairs is None:
            self._edge_pairs = (tuple(self.src.tolist()), tuple(self.dst.tolist()))
        return self._edge_pairs

    def local_triplets(self) -> Tuple[np.ndarray, np.ndarray]:
        """The partition's edges as indices into its ``vertex_ids`` mirror list.

        This is GraphX's ``EdgePartition`` encoding: triplets reference the
        partition-local vertex table, and the engine composes the local
        table with the global one.  Cached until :meth:`release`; the arrays
        are the vectorised counterpart of :meth:`edge_pairs` and are
        returned read-only, so no caller can corrupt the shared view.
        """
        if self._local_triplets is None:
            local_src = np.searchsorted(self.vertex_ids, self.src)
            local_dst = np.searchsorted(self.vertex_ids, self.dst)
            local_src.flags.writeable = False
            local_dst.flags.writeable = False
            self._local_triplets = (local_src, local_dst)
        return self._local_triplets

    def release(self) -> None:
        """Drop the cached local triplets (``build_triplets`` keeps them as
        the graph-wide replica slots, so the per-partition copy is dead weight)."""
        self._local_triplets = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgePartition(id={self.partition_id}, edges={self.num_edges}, "
            f"vertices={self.num_vertices})"
        )
