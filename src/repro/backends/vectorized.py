"""The ``vectorized`` backend: whole-graph numpy kernels over the CSR view.

Each kernel reproduces the *semantics* of the corresponding simulator
algorithm (same update rule, same synchronous BSP rounds, same iteration
caps) but executes it as a handful of array operations per round instead
of millions of Python-level message sends:

* **PR** — one ``bincount`` gather/scatter per iteration of the GraphX
  ``staticPageRank`` update (unnormalised, reset probability 0.15);
* **CC** — HashMin label propagation: per round, a synchronous
  ``np.minimum.at`` in both edge directions; converges to the minimum
  vertex id of every weak component;
* **TR** — sorted-adjacency intersection on the canonical undirected
  simple view, batched over all edges with one ``searchsorted`` per
  round-trip into the row-major neighbour array;
* **SSSP** — frontier-based Bellman-Ford, relaxing all landmarks at once
  with a 2-D ``np.minimum.at`` and only touching edges whose destination
  improved in the previous round;
* **degrees** — a single ``bincount`` per direction.

The backend has no cluster model: results carry ``report=None``,
``simulated_seconds == 0.0`` and the measured ``wall_seconds`` instead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..algorithms.result import AlgorithmResult
from ..algorithms.shortest_paths import choose_landmarks, rows_any_less
from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..errors import BackendError
from ..partitioning.membership import segment_arange
from .base import Backend, GraphLike, resolve_graph
from .csr import CSRGraph

__all__ = [
    "VectorizedBackend",
    "pagerank_kernel",
    "connected_components_kernel",
    "triangle_kernel",
    "shortest_paths_kernel",
    "degree_kernel",
]


# ----------------------------------------------------------------------
# Kernels (dense-index in, dense-index out)
# ----------------------------------------------------------------------
def pagerank_kernel(
    csr: CSRGraph, num_iterations: int = 10, reset_prob: float = 0.15
) -> np.ndarray:
    """Unnormalised static PageRank; returns one rank per dense vertex index."""
    if num_iterations < 1:
        raise BackendError("num_iterations must be >= 1")
    if not 0.0 < reset_prob < 1.0:
        raise BackendError("reset_prob must be in (0, 1)")
    n = csr.num_vertices
    ranks = np.ones(n, dtype=np.float64)
    damping = 1.0 - reset_prob
    src, dst = csr.src_idx, csr.dst_idx
    # Every vertex that appears as a source has out-degree >= 1, so the
    # per-edge contribution rank/degree never divides by zero.
    inv_degree = np.zeros(n, dtype=np.float64)
    np.divide(1.0, csr.out_degrees, out=inv_degree, where=csr.out_degrees > 0)
    for _ in range(num_iterations):
        contrib = np.bincount(dst, weights=ranks[src] * inv_degree[src], minlength=n)
        ranks = reset_prob + damping * contrib
    return ranks


def connected_components_kernel(
    csr: CSRGraph, max_iterations: Optional[int] = None
) -> Tuple[np.ndarray, int]:
    """HashMin weak-component labels (original vertex ids), capped at
    ``max_iterations`` synchronous rounds like the simulator.

    Returns ``(labels, rounds)`` where ``rounds`` counts the rounds
    actually executed, including the final no-change round that detects
    convergence (the simulator records that empty superstep too).
    """
    labels = csr.vertex_ids.astype(np.int64).copy()
    cap = max_iterations if max_iterations is not None else csr.num_vertices + 1
    src, dst = csr.src_idx, csr.dst_idx
    rounds = 0
    while rounds < cap:
        rounds += 1
        new = labels.copy()
        np.minimum.at(new, dst, labels[src])
        np.minimum.at(new, src, labels[dst])
        if np.array_equal(new, labels):
            break
        labels = new
    return labels, rounds


def triangle_kernel(csr: CSRGraph) -> np.ndarray:
    """Per-vertex triangle counts of the canonical undirected simple view.

    Uses the degree-ordered "forward" algorithm: orient every canonical
    edge from its lower- to its higher-degree endpoint, then for each
    oriented edge ``(u, v)`` intersect the oriented successor sets
    ``N+(u) ∩ N+(v)``.  Each triangle is discovered exactly once (at its
    lowest-ranked corner), and hub vertices keep only tiny successor
    sets, which bounds the wedge enumeration by O(E^1.5) instead of the
    sum of min-degrees.
    """
    n = csr.num_vertices
    counts = np.zeros(n, dtype=np.int64)
    lo, hi = csr.canonical_edges()
    if lo.size == 0:
        return counts
    undirected_degrees = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    # Total order on vertices: by degree, ties by index.
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), undirected_degrees))] = np.arange(n)
    forward = rank[lo] < rank[hi]
    eu = np.where(forward, lo, hi)  # lower-ranked endpoint
    ev = np.where(forward, hi, lo)
    # Oriented CSR keyed by the *rank* of the successor, sorted per row.
    out_deg = np.bincount(eu, minlength=n)
    order = np.lexsort((rank[ev], eu))
    succ_rank = rank[ev][order]
    succ_vertex = ev[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_deg, out=indptr[1:])
    # Enumerate the smaller successor set of each oriented edge and test
    # membership in the other.  Rows are sorted and rank-keys sorted within
    # each row, so (row * n + succ_rank) is globally sorted and a single
    # searchsorted answers every wedge at once.
    swap = out_deg[eu] > out_deg[ev]
    probe = np.where(swap, ev, eu)
    other = np.where(swap, eu, ev)
    probe_deg = out_deg[probe]
    total = int(probe_deg.sum())
    if total == 0:
        return counts
    edge_of = np.repeat(np.arange(eu.size, dtype=np.int64), probe_deg)
    flat = segment_arange(indptr[probe], probe_deg)
    wedge_rank = succ_rank[flat]
    wedge_vertex = succ_vertex[flat]
    keys = np.repeat(np.arange(n, dtype=np.int64), out_deg) * n + succ_rank
    queries = other[edge_of] * n + wedge_rank
    pos = np.searchsorted(keys, queries)
    hits = keys[np.minimum(pos, keys.size - 1)] == queries
    # Each hit is one distinct triangle {u, v, w}; credit all three corners.
    per_edge = np.bincount(edge_of[hits], minlength=eu.size)
    counts += np.bincount(eu, weights=per_edge, minlength=n).astype(np.int64)
    counts += np.bincount(ev, weights=per_edge, minlength=n).astype(np.int64)
    counts += np.bincount(wedge_vertex[hits], minlength=n)
    return counts


def shortest_paths_kernel(
    csr: CSRGraph, landmark_indices: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Hop distances to each landmark along edge direction (``v -> ... -> l``).

    Returns ``(distances, rounds)``: an ``(num_vertices, num_landmarks)``
    float array with ``np.inf`` for unreachable landmarks, plus the number
    of frontier-relaxation rounds executed.  Messages flow from edge
    destinations back to sources, matching GraphX ``ShortestPaths``.
    """
    n = csr.num_vertices
    num_landmarks = int(landmark_indices.size)
    dist = np.full((n, num_landmarks), np.inf, dtype=np.float64)
    dist[landmark_indices, np.arange(num_landmarks)] = 0.0
    src, dst = csr.src_idx, csr.dst_idx
    changed = np.zeros(n, dtype=bool)
    changed[landmark_indices] = True
    rounds = 0
    while changed.any():
        rounds += 1
        frontier_edges = changed[dst]
        new = dist.copy()
        np.minimum.at(new, src[frontier_edges], dist[dst[frontier_edges]] + 1.0)
        changed = rows_any_less(new, dist)
        dist = new
    return dist, rounds


def degree_kernel(csr: CSRGraph, direction: str = "out") -> np.ndarray:
    """Per-vertex degree in one direction (``out``, ``in`` or ``both``)."""
    if direction == "out":
        return csr.out_degrees.copy()
    if direction == "in":
        return csr.in_degrees.copy()
    if direction == "both":
        return csr.out_degrees + csr.in_degrees
    raise BackendError(f"direction must be 'out', 'in' or 'both', got {direction!r}")


# ----------------------------------------------------------------------
# Backend adapter
# ----------------------------------------------------------------------
class VectorizedBackend(Backend):
    """CSR + numpy execution of the paper's algorithms.

    ``num_supersteps`` on results counts synchronous kernel rounds plus
    the initialisation superstep, mirroring the simulator's accounting
    for the Pregel-style algorithms (PR, CC, SSSP).  Triangle counting is
    a single bulk pass here, so it reports 1 superstep where the
    simulator's three-phase execution reports 3.
    """

    name = "vectorized"

    def _run(
        self,
        algorithm: str,
        graph: GraphLike,
        num_iterations: int = 10,
        landmarks: Optional[List[int]] = None,
        landmark_seed: int = 7,
        cluster: Optional[ClusterConfig] = None,
        cost_parameters: Optional[CostParameters] = None,
        engine_workers: Optional[int] = None,
    ) -> AlgorithmResult:
        plain = resolve_graph(graph)
        csr = plain.csr()
        key = algorithm.upper()
        if key == "PR":
            ranks = pagerank_kernel(csr, num_iterations=num_iterations)
            return self._result("PageRank", csr, ranks, num_iterations + 1)
        if key == "CC":
            labels, rounds = connected_components_kernel(csr, max_iterations=num_iterations)
            return self._result("ConnectedComponents", csr, labels, rounds + 1)
        if key == "TR":
            return self._result("TriangleCount", csr, triangle_kernel(csr), 1)
        if key == "SSSP":
            chosen = landmarks or choose_landmarks(plain, count=1, seed=landmark_seed)
            landmark_list = list(dict.fromkeys(int(v) for v in chosen))
            known = np.isin(landmark_list, csr.vertex_ids).tolist()
            if not all(known):
                unknown = [v for v, ok in zip(landmark_list, known) if not ok]
                raise BackendError(f"landmarks not present in the graph: {unknown}")
            dist, rounds = shortest_paths_kernel(csr, csr.index_of(landmark_list))
            return self._result("ShortestPaths", csr, dist, rounds + 1, landmark_list)
        raise BackendError(
            f"unknown algorithm {algorithm!r}; expected one of ['PR', 'CC', 'TR', 'SSSP']"
        )

    def _degrees(self, graph: GraphLike, direction: str = "out") -> AlgorithmResult:
        csr = resolve_graph(graph).csr()
        values = degree_kernel(csr, direction=direction)
        return self._result(f"DegreeCount[{direction}]", csr, values, 1)

    def _result(self, algorithm, csr, values, num_supersteps, columns=None) -> AlgorithmResult:
        return AlgorithmResult(
            algorithm=algorithm,
            vertex_ids=csr.vertex_ids,
            values=values,
            num_supersteps=num_supersteps,
            report=None,
            backend=self.name,
            columns=columns,
        )
