"""Bounded edge-chunk sources for the out-of-core pipeline.

Everything downstream of this module — the shard writer, the chunked
partition assigners, the reworked :func:`repro.core.io.read_edge_list` —
consumes edges as a stream of bounded ``(src, dst)`` int64 array pairs
instead of whole-graph arrays, so peak memory is O(chunk) no matter how
large the dataset is.

Chunk boundaries are an implementation detail: every source here yields
the *same* edge sequence for every chunk size, which is what lets the
equivalence zoo assert bit-identical placements between the chunked and
in-memory paths.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.graph import Graph
from ..core.io import PathLike
from ..errors import GraphIOError, require_count

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "EdgeChunkSource",
    "EdgeListChunkSource",
    "GraphChunkSource",
    "SyntheticChunkSource",
    "materialize",
]


#: Default edges per chunk.  At 16 bytes per edge pair this is ~4 MiB of
#: edge data per chunk — small enough that a handful of working arrays per
#: chunk stays far below any realistic memory budget, large enough that the
#: per-chunk numpy dispatch overhead is negligible.
DEFAULT_CHUNK_EDGES = 262_144


class EdgeChunkSource:
    """Protocol for bounded edge streams.

    Implementations expose ``name`` (dataset label), :attr:`num_edges`
    (total stream length, known before iteration so capacity-based
    partitioners can size their balance caps), optionally
    :attr:`vertex_ids` (the full vertex set when the source knows about
    isolated vertices the edge stream alone cannot reveal), and
    :meth:`chunks`, an iterator of ``(src, dst)`` int64 array pairs whose
    concatenation is the edge list.
    """

    name: str = ""

    @property
    def num_edges(self) -> int:
        raise NotImplementedError

    @property
    def vertex_ids(self) -> Optional[np.ndarray]:
        """The full sorted vertex id set, or ``None`` when only the edge
        endpoints define it (the common case for files and generators)."""
        return None

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        raise NotImplementedError


def _is_data_line(stripped: str) -> bool:
    return bool(stripped) and not stripped.startswith("#") and not stripped.startswith("%")


class EdgeListChunkSource(EdgeChunkSource):
    """Chunked reader for SNAP-style whitespace/`delimiter` edge lists.

    Parsing semantics are identical to the seed ``read_edge_list`` loop:
    lines starting with ``#`` or ``%`` (or blank) are skipped, each other
    line needs at least two fields, extra fields are ignored, and every
    defect raises :class:`~repro.errors.GraphIOError` with the same
    ``path:line`` message.  Each chunk is parsed with numpy's bulk string
    conversion; when numpy rejects a batch (it is stricter than Python's
    ``int()`` — e.g. ``"1_0"``), the chunk falls back to per-token Python
    ``int()`` so accepted values and raised diagnostics both match the
    line-by-line reader exactly.
    """

    def __init__(
        self,
        path: PathLike,
        delimiter: Optional[str] = None,
        name: str = "",
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
    ) -> None:
        self.path = path
        self.delimiter = delimiter
        self.name = name or os.path.basename(str(path))
        self.chunk_edges = require_count(chunk_edges, "chunk_edges", 1, ValueError)
        self._num_edges: Optional[int] = None

    @property
    def num_edges(self) -> int:
        """Total data lines in the file (counted once, then cached).

        The counting pass only classifies lines; malformed fields are
        reported by :meth:`chunks`, which carries the line numbers.
        """
        if self._num_edges is None:
            count = 0
            try:
                with open(self.path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        if _is_data_line(line.strip()):
                            count += 1
            except OSError as exc:
                raise GraphIOError(f"cannot read edge list {self.path}: {exc}") from exc
            self._num_edges = count
        return self._num_edges

    def _parse_batch(
        self,
        tokens_src: List[str],
        tokens_dst: List[str],
        line_numbers: List[int],
        stripped_lines: List[str],
    ) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return (
                np.array(tokens_src, dtype=np.int64),
                np.array(tokens_dst, dtype=np.int64),
            )
        except (ValueError, OverflowError):
            pass
        # numpy rejected the batch; re-parse with Python int() to either
        # accept what the seed reader accepted or fail on its exact line.
        src: List[int] = []
        dst: List[int] = []
        for token_s, token_d, line_number, stripped in zip(
            tokens_src, tokens_dst, line_numbers, stripped_lines
        ):
            try:
                src.append(int(token_s))
                dst.append(int(token_d))
            except ValueError as exc:
                raise GraphIOError(
                    f"{self.path}:{line_number}: non-integer vertex id in {stripped!r}"
                ) from exc
        return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        tokens_src: List[str] = []
        tokens_dst: List[str] = []
        line_numbers: List[int] = []
        stripped_lines: List[str] = []
        total = 0

        def drain() -> Tuple[np.ndarray, np.ndarray]:
            batch = self._parse_batch(tokens_src, tokens_dst, line_numbers, stripped_lines)
            tokens_src.clear()
            tokens_dst.clear()
            line_numbers.clear()
            stripped_lines.clear()
            return batch

        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    stripped = line.strip()
                    if not _is_data_line(stripped):
                        continue
                    fields = stripped.split(self.delimiter)
                    if len(fields) < 2:
                        raise GraphIOError(
                            f"{self.path}:{line_number}: expected at least two fields, "
                            f"got {stripped!r}"
                        )
                    tokens_src.append(fields[0])
                    tokens_dst.append(fields[1])
                    line_numbers.append(line_number)
                    stripped_lines.append(stripped)
                    if len(tokens_src) >= self.chunk_edges:
                        total += len(tokens_src)
                        yield drain()
        except OSError as exc:
            raise GraphIOError(f"cannot read edge list {self.path}: {exc}") from exc
        if tokens_src:
            total += len(tokens_src)
            yield drain()
        self._num_edges = total


class SyntheticChunkSource(EdgeChunkSource):
    """Vectorised chunked generator for benchmark graphs far larger than RAM.

    Endpoints are drawn from a power-law-ish distribution: each uniform
    draw ``u`` maps to vertex ``floor(V * u**skew)``, so ``skew > 1``
    concentrates mass on low vertex ids (hub formation) while ``skew = 1``
    is uniform.  The stream is chunk-size invariant because edge ``i``
    always consumes uniform draws ``2i`` and ``2i + 1`` from the seeded
    generator, regardless of how the stream is chunked.
    """

    def __init__(
        self,
        num_vertices: int,
        num_edges: int,
        seed: int,
        skew: float = 2.0,
        name: str = "",
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
    ) -> None:
        if num_vertices < 1:
            raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
        if num_edges < 0:
            raise ValueError(f"num_edges must be non-negative, got {num_edges}")
        if not (0 < skew < np.inf):
            raise ValueError(f"skew must be positive and finite, got {skew}")
        self.num_vertices = int(num_vertices)
        self.seed = int(seed)
        self.skew = float(skew)
        self.name = name or f"synthetic-{num_vertices}v-{num_edges}e-s{seed}"
        self.chunk_edges = require_count(chunk_edges, "chunk_edges", 1, ValueError)
        self._num_edges = int(num_edges)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(self.seed)
        remaining = self._num_edges
        while remaining > 0:
            count = min(remaining, self.chunk_edges)
            # Row i holds draws (2i, 2i+1) of the global stream: reshaping
            # keeps the draw->edge mapping independent of the chunk size.
            draws = rng.random(2 * count).reshape(count, 2)
            src = (self.num_vertices * draws[:, 0] ** self.skew).astype(np.int64)
            dst = (self.num_vertices * draws[:, 1] ** self.skew).astype(np.int64)
            # Drop the float draws before yielding: the generator frame
            # stays alive while the consumer processes the chunk, and the
            # draw buffer is twice the size of the chunk it produced.
            del draws
            yield src, dst
            remaining -= count


class GraphChunkSource(EdgeChunkSource):
    """Adapter that streams an in-memory :class:`Graph` as bounded chunks.

    Yields zero-copy views into the graph's edge arrays; used when a
    catalog graph is sharded so the chunked and in-memory paths consume
    literally the same values.  Carries the graph's full vertex id set so
    isolated vertices survive the round trip through shards.
    """

    def __init__(self, graph: Graph, chunk_edges: int = DEFAULT_CHUNK_EDGES) -> None:
        self.graph = graph
        self.name = graph.name
        self.chunk_edges = require_count(chunk_edges, "chunk_edges", 1, ValueError)

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def vertex_ids(self) -> Optional[np.ndarray]:
        return self.graph.vertex_ids

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        src = self.graph.src
        dst = self.graph.dst
        for start in range(0, len(src), self.chunk_edges):
            stop = start + self.chunk_edges
            yield src[start:stop], dst[start:stop]


def materialize(source: EdgeChunkSource, name: str = "") -> Graph:
    """Collect a chunk stream into an in-memory :class:`Graph`.

    This is the bridge for small graphs (``read_edge_list``, tests); the
    out-of-core path proper never calls it.
    """
    src_chunks: List[np.ndarray] = []
    dst_chunks: List[np.ndarray] = []
    for src, dst in source.chunks():
        src_chunks.append(src)
        dst_chunks.append(dst)
    if src_chunks:
        src = np.concatenate(src_chunks)
        dst = np.concatenate(dst_chunks)
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    vertices = source.vertex_ids
    return Graph(
        src,
        dst,
        vertices=None if vertices is None else vertices,
        name=name or source.name,
    )
