"""Structural statistics used to characterise datasets (Table 1, Figures 1-2).

Every statistic the paper reports for its datasets is computed here:
edge symmetry, the fraction of vertices with zero in/out degree, the global
triangle count, weakly connected components, the diameter
(infinite when the graph is disconnected), and an on-disk size estimate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph

__all__ = [
    "GraphSummary",
    "symmetry_percent",
    "zero_in_percent",
    "zero_out_percent",
    "triangle_count",
    "weakly_connected_components",
    "num_weakly_connected_components",
    "diameter",
    "estimated_size_bytes",
    "degree_histogram",
    "degree_ratio_cdf",
    "summarize",
]


# ----------------------------------------------------------------------
# Edge reciprocity and leaf vertices
# ----------------------------------------------------------------------
def symmetry_percent(graph: Graph) -> float:
    """Percentage of edges whose reverse edge is also present.

    Undirected datasets stored as reciprocated arcs therefore report 100%.
    Self-loops count as symmetric (their reverse is themselves).
    An empty graph reports 100% by convention.
    """
    if graph.num_edges == 0:
        return 100.0
    edge_set = graph.edge_set()
    reciprocated = sum(1 for (s, d) in edge_set if (d, s) in edge_set)
    return 100.0 * reciprocated / len(edge_set)


def zero_in_percent(graph: Graph) -> float:
    """Percentage of vertices with no incoming edge."""
    if graph.num_vertices == 0:
        return 0.0
    in_deg = graph.in_degrees()
    zero = sum(1 for d in in_deg.values() if d == 0)
    return 100.0 * zero / graph.num_vertices


def zero_out_percent(graph: Graph) -> float:
    """Percentage of vertices with no outgoing edge."""
    if graph.num_vertices == 0:
        return 0.0
    out_deg = graph.out_degrees()
    zero = sum(1 for d in out_deg.values() if d == 0)
    return 100.0 * zero / graph.num_vertices


# ----------------------------------------------------------------------
# Triangles
# ----------------------------------------------------------------------
def triangle_count(graph: Graph) -> int:
    """Total number of distinct triangles in the canonicalised graph."""
    canonical = graph.canonicalized()
    adjacency = canonical.adjacency(direction="both")
    total = 0
    for u, v in canonical.edge_pairs():
        smaller, larger = (u, v) if len(adjacency[u]) <= len(adjacency[v]) else (v, u)
        total += len(adjacency[smaller] & adjacency[larger])
    return total // 3


# ----------------------------------------------------------------------
# Connectivity
# ----------------------------------------------------------------------
def weakly_connected_components(graph: Graph) -> Dict[int, int]:
    """Label every vertex with the smallest vertex id of its weak component."""
    adjacency = graph.adjacency(direction="both")
    labels: Dict[int, int] = {}
    for start in adjacency:
        if start in labels:
            continue
        queue = deque([start])
        members = [start]
        seen = {start}
        while queue:
            node = queue.popleft()
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    members.append(neighbour)
                    queue.append(neighbour)
        label = min(members)
        for node in members:
            labels[node] = label
    return labels


def num_weakly_connected_components(graph: Graph) -> int:
    """Number of weakly connected components."""
    labels = weakly_connected_components(graph)
    return len(set(labels.values())) if labels else 0


# ----------------------------------------------------------------------
# Diameter
# ----------------------------------------------------------------------
def _bfs_eccentricity(adjacency: Dict[int, set], source: int) -> Tuple[int, int]:
    """Return ``(eccentricity, furthest_vertex)`` of ``source`` by BFS."""
    dist = {source: 0}
    queue = deque([source])
    furthest = source
    while queue:
        node = queue.popleft()
        for neighbour in adjacency[node]:
            if neighbour not in dist:
                dist[neighbour] = dist[node] + 1
                if dist[neighbour] > dist[furthest]:
                    furthest = neighbour
                queue.append(neighbour)
    return dist[furthest], furthest


def diameter(graph: Graph, exact_limit: int = 2000) -> float:
    """Diameter of the undirected view of the graph.

    Returns ``math.inf`` when the graph has more than one weak component
    (the convention the paper uses in Table 1).  For graphs with at most
    ``exact_limit`` vertices the diameter is exact (BFS from every vertex);
    larger graphs use the double-sweep lower bound, which is exact on trees
    and very tight on small-world graphs.
    """
    if graph.num_vertices == 0:
        return 0.0
    if num_weakly_connected_components(graph) > 1:
        return math.inf
    adjacency = graph.adjacency(direction="both")
    vertices = list(adjacency)
    if len(vertices) <= exact_limit:
        return float(max(_bfs_eccentricity(adjacency, v)[0] for v in vertices))
    # Double sweep: BFS from an arbitrary vertex, then from the furthest
    # vertex found; repeat a few times to tighten the bound.
    best = 0
    start = vertices[0]
    for _ in range(4):
        ecc, far = _bfs_eccentricity(adjacency, start)
        best = max(best, ecc)
        start = far
    return float(best)


# ----------------------------------------------------------------------
# Size and distributions
# ----------------------------------------------------------------------
def estimated_size_bytes(graph: Graph, bytes_per_edge: int = 16) -> int:
    """Approximate on-disk size of the edge list (two int64 ids per edge)."""
    return graph.num_edges * bytes_per_edge


def degree_histogram(graph: Graph, direction: str = "in") -> Dict[int, int]:
    """Histogram ``{degree: number of vertices with that degree}``.

    ``direction`` is ``"in"``, ``"out"`` or ``"both"``; this is the data
    behind Figure 1 of the paper.
    """
    if direction == "in":
        degrees = graph.in_degrees()
    elif direction == "out":
        degrees = graph.out_degrees()
    elif direction == "both":
        degrees = graph.degrees()
    else:
        raise ValueError(f"unknown direction {direction!r}")
    histogram: Dict[int, int] = {}
    for value in degrees.values():
        histogram[value] = histogram.get(value, 0) + 1
    return histogram


def degree_ratio_cdf(graph: Graph, points: Optional[Sequence[float]] = None) -> List[Tuple[float, float]]:
    """CDF of the out-degree / in-degree ratio over all vertices (Figure 2).

    Vertices with zero in-degree are assigned a ratio of ``+inf`` and count
    toward the tail of the distribution; vertices with zero out-degree get
    a ratio of 0.  Returns ``[(ratio, cumulative_fraction), ...]`` sorted by
    ratio.  When ``points`` is given, the CDF is evaluated at those ratios
    instead of at every observed value.
    """
    in_deg = graph.in_degrees()
    out_deg = graph.out_degrees()
    ratios = []
    for vertex in in_deg:
        i, o = in_deg[vertex], out_deg[vertex]
        if i == 0 and o == 0:
            ratios.append(1.0)
        elif i == 0:
            ratios.append(math.inf)
        else:
            ratios.append(o / i)
    ratios.sort()
    n = len(ratios)
    if n == 0:
        return []
    if points is None:
        seen = []
        cdf = []
        for idx, value in enumerate(ratios, start=1):
            if seen and seen[-1] == value:
                cdf[-1] = (value, idx / n)
            else:
                seen.append(value)
                cdf.append((value, idx / n))
        return cdf
    result = []
    ratios_arr = np.asarray([r if math.isfinite(r) else np.inf for r in ratios])
    for point in points:
        result.append((float(point), float(np.mean(ratios_arr <= point))))
    return result


# ----------------------------------------------------------------------
# Summary (one Table-1 row)
# ----------------------------------------------------------------------
@dataclass
class GraphSummary:
    """All the per-dataset statistics the paper reports in Table 1."""

    name: str
    num_vertices: int
    num_edges: int
    symmetry_percent: float
    zero_in_percent: float
    zero_out_percent: float
    triangles: int
    connected_components: int
    diameter: float
    size_bytes: int

    def as_row(self) -> Dict[str, object]:
        """Return the summary as a flat dict suitable for tabulation."""
        return {
            "dataset": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "symm_pct": round(self.symmetry_percent, 2),
            "zero_in_pct": round(self.zero_in_percent, 2),
            "zero_out_pct": round(self.zero_out_percent, 2),
            "triangles": self.triangles,
            "components": self.connected_components,
            "diameter": self.diameter,
            "size_bytes": self.size_bytes,
        }


def summarize(graph: Graph, name: Optional[str] = None) -> GraphSummary:
    """Compute a full :class:`GraphSummary` (one row of Table 1)."""
    return GraphSummary(
        name=name or graph.name or "unnamed",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        symmetry_percent=symmetry_percent(graph),
        zero_in_percent=zero_in_percent(graph),
        zero_out_percent=zero_out_percent(graph),
        triangles=triangle_count(graph),
        connected_components=num_weakly_connected_components(graph),
        diameter=diameter(graph),
        size_bytes=estimated_size_bytes(graph),
    )
