"""Single-source shortest paths to a set of landmarks (GraphX ``ShortestPaths``).

Every vertex ends up with a map ``{landmark: hop distance}`` containing the
landmarks it can reach by following edge direction.  As in GraphX, messages
flow from edge destinations back to sources, so the distance of ``v`` to a
landmark ``l`` is the length of the shortest directed path ``v -> ... -> l``.

The paper evaluates this algorithm with 5 randomly chosen source vertices
per dataset; :func:`choose_landmarks` reproduces that selection
deterministically from a seed.

Two serving-oriented extensions live here as well:

* :func:`multi_source_distances` runs the *forward* orientation — seed
  vertices act as sources and distances propagate along edge direction —
  for any number of sources in a **single** Pregel run.  This is the
  frontier sweep the ``repro serve`` batching scheduler coalesces
  concurrent point queries into.
* :func:`build_landmark_matrix` combines one backward and one forward
  sweep over a landmark set into a :class:`LandmarkMatrix`, whose
  triangle-inequality :meth:`~LandmarkMatrix.estimate` answers
  point-to-point distance queries in O(landmarks) without touching the
  engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.messaging import ArrayMessageKernel
from ..engine.partitioned_graph import PartitionedGraph
from ..engine.pregel import pregel
from ..errors import EngineError, require_count
from .result import AlgorithmResult

__all__ = [
    "shortest_paths",
    "multi_source_distances",
    "choose_landmarks",
    "build_landmark_matrix",
    "LandmarkMatrix",
    "ShortestPathsKernel",
    "MultiSourceShortestPathsKernel",
    "rows_any_less",
]

_EDGE_UNITS = 1.0
_VERTEX_UNITS = 0.5


def rows_any_less(candidates: np.ndarray, current: np.ndarray) -> np.ndarray:
    """``(candidates < current).any(axis=1)`` for two ``(n, w)`` arrays, as
    an OR over the ``w`` columns of the comparison.  numpy's row reduction
    is 4-8x slower at the few columns a landmark sweep has (42 against 11 us
    for 1,445 x 3, 1,084 against 143 us for 40k x 3) and level at 32."""
    less = candidates < current
    improving = np.zeros(less.shape[0], dtype=bool)
    for column in range(less.shape[1]):
        improving |= less[:, column]
    return improving


class ShortestPathsKernel(ArrayMessageKernel):
    """Vectorised landmark maps: one float row per vertex (``inf`` marks an
    absent landmark entry), candidate rows ``dst + 1`` sent backwards along
    edges that improve the source, merged with elementwise ``np.minimum``."""

    merge_ufunc = np.minimum
    merge_identity = np.inf
    message_dtype = np.float64

    def __init__(self, landmarks: List[int]) -> None:
        self.landmarks = [int(v) for v in landmarks]
        self.message_width = len(self.landmarks)

    def send_message_array(self, src_idx, dst_idx, state):
        # ``take`` gathers few-column rows about 3x faster than fancy indexing
        # (141 against 477 us for 40k x 3).
        candidates = state.take(dst_idx, axis=0)
        candidates += 1.0
        positions = np.flatnonzero(rows_any_less(candidates, state.take(src_idx, axis=0)))
        return positions, src_idx[positions], candidates[positions]

    def apply_messages(self, state, target_idx, messages):
        state[target_idx] = np.minimum(state[target_idx], messages)
        return state


class MultiSourceShortestPathsKernel(ShortestPathsKernel):
    """The forward orientation of :class:`ShortestPathsKernel`: candidate
    rows ``src + 1`` travel *along* edge direction to destinations that
    improve, so row entries are ``d(source -> v)`` instead of
    ``d(v -> landmark)``.  The state layout and the merge are inherited."""

    def send_message_array(self, src_idx, dst_idx, state):
        candidates = state.take(src_idx, axis=0)
        candidates += 1.0
        positions = np.flatnonzero(rows_any_less(candidates, state.take(dst_idx, axis=0)))
        return positions, dst_idx[positions], candidates[positions]


def shortest_paths(
    pgraph: PartitionedGraph,
    landmarks: Iterable[int],
    max_iterations: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
    parallel_workers: Optional[int] = None,
) -> AlgorithmResult:
    """Compute hop distances from every vertex to each landmark it can reach.

    The result's ``values`` are the ``(num_vertices, num_landmarks)`` hop
    matrix (``inf`` where unreached) and its ``columns`` the landmarks.
    Duplicate landmarks are collapsed (first occurrence wins the ordering).
    """
    return _landmark_sweep(
        pgraph,
        "ShortestPaths",
        "landmark",
        landmarks,
        ShortestPathsKernel,
        max_iterations,
        cluster,
        cost_parameters,
        parallel_workers,
    )


def multi_source_distances(
    pgraph: PartitionedGraph,
    sources: Iterable[int],
    max_iterations: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
    parallel_workers: Optional[int] = None,
) -> AlgorithmResult:
    """Hop distances *from* every source vertex, all in one Pregel run.

    The result's ``values[i, j]`` is ``d(columns[j] -> vertex_ids[i])``
    (``inf`` where unreached), and its ``vertex_values`` map each vertex
    ``v`` to ``{source: d(source -> v)}`` for the sources that reach it,
    so a point query ``d(u -> v)`` reads ``vertex_values[v].get(u)``.  Any
    number of sources share one frontier sweep — this is the primitive
    the serving layer's batching scheduler coalesces concurrent SSSP
    requests into, and running it with sources ``[s]`` N times is
    value-identical to one run with sources ``[s1, ..., sN]``.

    Duplicate sources are collapsed (first occurrence wins the ordering).
    """
    return _landmark_sweep(
        pgraph,
        "MultiSourceSSSP",
        "source",
        sources,
        MultiSourceShortestPathsKernel,
        max_iterations,
        cluster,
        cost_parameters,
        parallel_workers,
    )


def _landmark_sweep(
    pgraph: PartitionedGraph,
    algorithm: str,
    role: str,
    seeds: Iterable[int],
    kernel: type,
    max_iterations: Optional[int],
    cluster: Optional[ClusterConfig],
    cost_parameters: Optional[CostParameters],
    parallel_workers: Optional[int],
) -> AlgorithmResult:
    """One Pregel run of a landmark-map ``kernel`` class over the distinct
    ``seeds`` (first occurrence wins the column order): each seed starts at
    distance 0 from itself in its own column, every other entry unreached."""
    seeds = list(dict.fromkeys(int(v) for v in seeds))
    if not seeds:
        raise EngineError(f"at least one {role} vertex is required")
    vertex_ids = pgraph.graph.vertex_ids
    known = np.isin(seeds, vertex_ids).tolist()
    if not all(known):
        unknown = [v for v, ok in zip(seeds, known) if not ok]
        raise EngineError(f"{role}s not present in the graph: {unknown}")

    iterations = max_iterations if max_iterations is not None else vertex_ids.size + 1
    state = np.full((vertex_ids.size, len(seeds)), np.inf)
    state[np.searchsorted(vertex_ids, seeds), np.arange(len(seeds))] = 0.0
    result = pregel(
        pgraph,
        initial_values=state,
        max_iterations=iterations,
        active_direction="either",
        cluster=cluster,
        cost_parameters=cost_parameters,
        edge_compute_units=_EDGE_UNITS,
        vertex_compute_units=_VERTEX_UNITS,
        message_kernel=kernel(seeds),
        parallel_workers=parallel_workers,
    )

    return AlgorithmResult(
        algorithm=algorithm,
        vertex_ids=vertex_ids,
        values=result.vertex_values,
        num_supersteps=result.num_supersteps,
        report=result.report,
        columns=seeds,
    )


@dataclass
class LandmarkMatrix:
    """Dense landmark-distance matrices for triangle-inequality estimates.

    ``to_landmark[i, j]`` is ``d(vertex_ids[i] -> landmarks[j])`` and
    ``from_landmark[j, i]`` is ``d(landmarks[j] -> vertex_ids[i])``
    (``inf`` marks unreachable).  :meth:`estimate` answers a point query
    with the best landmark detour ``d(u -> l) + d(l -> v)`` — an upper
    bound on the true directed distance that is *exact* whenever either
    endpoint is itself a landmark.
    """

    landmarks: List[int]
    vertex_ids: np.ndarray = field(repr=False)
    to_landmark: np.ndarray = field(repr=False)
    from_landmark: np.ndarray = field(repr=False)

    def index_of(self, vertex: int) -> int:
        """Dense row index of ``vertex`` (:class:`EngineError` if unknown)."""
        position = int(np.searchsorted(self.vertex_ids, int(vertex)))
        if position >= self.vertex_ids.size or int(self.vertex_ids[position]) != int(vertex):
            raise EngineError(f"vertex {vertex!r} is not in the graph")
        return position

    def estimate(self, source: int, target: int) -> Optional[int]:
        """Upper-bound hop distance ``d(source -> target)`` via the best
        landmark detour, or None when no landmark links the pair."""
        if int(source) == int(target):
            self.index_of(source)
            return 0
        via = self.to_landmark[self.index_of(source)] + self.from_landmark[:, self.index_of(target)]
        best = float(via.min()) if via.size else float("inf")
        return None if not np.isfinite(best) else int(best)

    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the two distance matrices."""
        return int(self.to_landmark.nbytes + self.from_landmark.nbytes)


def build_landmark_matrix(
    pgraph: PartitionedGraph,
    landmarks: Iterable[int],
    max_iterations: Optional[int] = None,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
) -> LandmarkMatrix:
    """Precompute the :class:`LandmarkMatrix` for ``landmarks``.

    One backward sweep (:func:`shortest_paths`) yields every vertex's
    distance *to* each landmark; one forward sweep
    (:func:`multi_source_distances`) yields each landmark's distance to
    every vertex.  Two engine runs total, regardless of landmark count.
    Duplicate landmarks are collapsed (first occurrence wins the ordering).
    """
    to_sweep = shortest_paths(
        pgraph,
        landmarks,
        max_iterations=max_iterations,
        cluster=cluster,
        cost_parameters=cost_parameters,
    )
    from_sweep = multi_source_distances(
        pgraph,
        to_sweep.columns,
        max_iterations=max_iterations,
        cluster=cluster,
        cost_parameters=cost_parameters,
    )
    return LandmarkMatrix(
        landmarks=to_sweep.columns,
        vertex_ids=to_sweep.vertex_ids,
        to_landmark=to_sweep.values,
        from_landmark=from_sweep.values.T.copy(),
    )


def choose_landmarks(
    pgraph_or_graph, count: int = 5, seed: Optional[int] = 7
) -> List[int]:
    """Deterministically sample landmark vertices, as the paper's SSSP setup does.

    ``seed=None`` selects the default seed (7), mirroring
    :meth:`Session.landmarks(seed=None) <repro.session.Session.landmarks>`;
    a ``count`` below 1 is a configuration error, not an empty sample.
    """
    count = require_count(count, "landmark count", 1, EngineError)
    graph = getattr(pgraph_or_graph, "graph", pgraph_or_graph)
    vertices = graph.vertex_ids.tolist()
    if not vertices:
        raise EngineError("cannot choose landmarks from an empty graph")
    rng = random.Random(7 if seed is None else seed)
    count = min(count, len(vertices))
    return sorted(rng.sample(vertices, count))
