"""Independent numpy oracles for the benchmark's correctness checks.

Nothing here imports ``repro``: every function takes plain edge arrays
(``src``/``dst`` int64, ``vertex_ids`` sorted and unique) and recomputes
the answer a different way from the program under test — dense
recurrences, union-find, frontier BFS, sorted-adjacency wedge closing —
so a check never degenerates into the engine agreeing with itself.
They are valid for any ``--seed``.

Each ``check_*`` returns a list of human-readable mismatch strings
(empty = the result is correct); the workloads count a non-empty list as
one failed oracle check and never raise past it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "bfs_hops",
    "cc_labels",
    "check_components",
    "check_distance_answers",
    "check_hop_maps",
    "check_pagerank",
    "check_placement_counts",
    "check_triangles",
    "pagerank_ranks",
    "placement_counts",
    "propagate_min_labels",
    "triangles_per_vertex",
]

#: Relative tolerance for PageRank: the engine folds contributions in
#: partition order, the oracle in edge order, so the last bits differ.
PAGERANK_RTOL = 1e-9


def _dense(vertex_ids: np.ndarray, endpoints: np.ndarray) -> np.ndarray:
    """Positions of ``endpoints`` in the sorted ``vertex_ids`` table."""
    return np.searchsorted(vertex_ids, endpoints)


def _csr(num_vertices: int, tails: np.ndarray, heads: np.ndarray):
    """``(offsets, heads sorted by tail)`` of the adjacency tails -> heads."""
    order = np.argsort(tails, kind="stable")
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=num_vertices), out=offsets[1:])
    return offsets, heads[order]


def _aligned(label: str, values: Mapping[int, object], vertex_ids: np.ndarray, dtype):
    """``(values as an array aligned with vertex_ids, problems)``: a result
    must hold exactly one value per vertex."""
    ids = vertex_ids.tolist()
    if len(values) != len(ids):
        return None, [f"{label}: {len(values)} values for {len(ids)} vertices"]
    try:
        return np.array([values[v] for v in ids], dtype=dtype), []
    except KeyError as missing:
        return None, [f"{label}: vertex {missing} has no value"]


def _first_mismatch(label: str, got: np.ndarray, expected: np.ndarray, vertex_ids: np.ndarray) -> List[str]:
    wrong = np.flatnonzero(got != expected)
    if not wrong.size:
        return []
    first = int(wrong[0])
    return [
        f"{label}: {wrong.size} wrong values, e.g. vertex {int(vertex_ids[first])} "
        f"has {int(got[first])} vs oracle {int(expected[first])}"
    ]


def _gather(offsets: np.ndarray, targets: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Concatenated adjacency lists of every vertex in ``frontier``."""
    starts, stops = offsets[frontier], offsets[frontier + 1]
    counts = stops - starts
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    return targets[base + np.arange(total)]


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
def pagerank_ranks(
    src: np.ndarray,
    dst: np.ndarray,
    vertex_ids: np.ndarray,
    num_iterations: int,
    reset_prob: float = 0.15,
) -> np.ndarray:
    """GraphX static PageRank, unnormalised, aligned with ``vertex_ids``:
    ``rank_v <- reset + (1 - reset) * sum_{u->v} rank_u / outdeg_u``."""
    n = vertex_ids.size
    s, d = _dense(vertex_ids, src), _dense(vertex_ids, dst)
    out_degree = np.bincount(s, minlength=n).astype(np.float64)
    ranks = np.ones(n, dtype=np.float64)
    for _ in range(num_iterations):
        contributions = np.bincount(d, weights=ranks[s] / out_degree[s], minlength=n)
        ranks = reset_prob + (1.0 - reset_prob) * contributions
    return ranks


def check_pagerank(
    values: Mapping[int, float],
    src: np.ndarray,
    dst: np.ndarray,
    vertex_ids: np.ndarray,
    num_iterations: int,
) -> List[str]:
    got, problems = _aligned("pagerank", values, vertex_ids, np.float64)
    if problems:
        return problems
    expected = pagerank_ranks(src, dst, vertex_ids, num_iterations)
    error = np.abs(got - expected) / np.abs(expected)
    worst = int(np.argmax(error))
    if not error[worst] <= PAGERANK_RTOL:
        return [
            f"pagerank: vertex {int(vertex_ids[worst])} rank {got[worst]!r} vs oracle "
            f"{expected[worst]!r} (relative error {error[worst]:.3g})"
        ]
    return []


# ----------------------------------------------------------------------
# Connected components
# ----------------------------------------------------------------------
def cc_labels(src: np.ndarray, dst: np.ndarray, vertex_ids: np.ndarray) -> np.ndarray:
    """Smallest vertex id of each vertex's weak component, by union-find
    (union by smaller root, path halving), aligned with ``vertex_ids``."""
    parent = list(range(vertex_ids.size))
    for a, b in zip(_dense(vertex_ids, src).tolist(), _dense(vertex_ids, dst).tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    roots = np.asarray(parent, dtype=np.int64)
    while True:  # full compression; roots are minimal because unions keep the smaller
        hop = roots[roots]
        if np.array_equal(hop, roots):
            return vertex_ids[roots]
        roots = hop


def propagate_min_labels(
    src: np.ndarray, dst: np.ndarray, vertex_ids: np.ndarray, rounds: int
) -> np.ndarray:
    """Labels after ``rounds`` synchronous min-label exchanges over every
    edge in both directions — what an iteration-capped CC run must hold."""
    s, d = _dense(vertex_ids, src), _dense(vertex_ids, dst)
    labels = vertex_ids.copy()
    for _ in range(rounds):
        updated = labels.copy()
        np.minimum.at(updated, d, labels[s])
        np.minimum.at(updated, s, labels[d])
        if np.array_equal(updated, labels):
            break
        labels = updated
    return labels


def check_components(
    values: Mapping[int, int],
    src: np.ndarray,
    dst: np.ndarray,
    vertex_ids: np.ndarray,
    rounds: Optional[int] = None,
) -> List[str]:
    """``rounds=None`` checks a run to convergence against union-find;
    a number checks an iteration-capped run against that many exchanges."""
    if rounds is None:
        expected = cc_labels(src, dst, vertex_ids)
    else:
        expected = propagate_min_labels(src, dst, vertex_ids, rounds)
    got, problems = _aligned("components", values, vertex_ids, np.int64)
    return problems or _first_mismatch("components", got, expected, vertex_ids)


# ----------------------------------------------------------------------
# Hop distances (SSSP)
# ----------------------------------------------------------------------
def bfs_hops(
    src: np.ndarray,
    dst: np.ndarray,
    vertex_ids: np.ndarray,
    origin: int,
    towards_origin: bool,
) -> np.ndarray:
    """Frontier-BFS hop counts aligned with ``vertex_ids`` (-1 = unreachable).

    ``towards_origin=True`` gives ``d(v -> origin)`` along edge direction
    (landmark SSSP); ``False`` gives ``d(origin -> v)`` (the serve
    daemon's exact distances).
    """
    n = vertex_ids.size
    s, d = _dense(vertex_ids, src), _dense(vertex_ids, dst)
    offsets, targets = _csr(n, d, s) if towards_origin else _csr(n, s, d)
    hops = np.full(n, -1, dtype=np.int64)
    frontier = _dense(vertex_ids, np.array([origin], dtype=np.int64))
    hops[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        reached = np.unique(_gather(offsets, targets, frontier))
        frontier = reached[hops[reached] < 0]
        hops[frontier] = level
    return hops


def check_hop_maps(
    values: Mapping[int, Mapping[int, int]],
    src: np.ndarray,
    dst: np.ndarray,
    vertex_ids: np.ndarray,
    landmarks: Sequence[int],
) -> List[str]:
    """``values[v]`` must map exactly the landmarks ``v`` reaches to their hops."""
    ids = vertex_ids.tolist()
    if len(values) != len(ids):
        return [f"sssp: {len(values)} maps for {len(ids)} vertices"]
    problems: List[str] = []
    claimed = 0
    for landmark in landmarks:
        expected = bfs_hops(src, dst, vertex_ids, landmark, towards_origin=True)
        got = np.array([values[v].get(landmark, -1) for v in ids], dtype=np.int64)
        claimed += int((got >= 0).sum())
        problems += _first_mismatch(f"sssp to landmark {landmark}", got, expected, vertex_ids)
    entries = sum(len(values[v]) for v in ids)
    if entries != claimed:
        problems.append(f"sssp: {entries - claimed} entries for vertices that are not landmarks")
    return problems


def check_distance_answers(
    answers: Sequence[Dict[str, object]],
    src: np.ndarray,
    dst: np.ndarray,
    vertex_ids: np.ndarray,
) -> List[str]:
    """``/distance?exact=1`` payloads (``source``, ``target``, ``distance``)
    against BFS from each distinct source."""
    problems: List[str] = []
    by_source: Dict[int, np.ndarray] = {}
    for answer in answers:
        source, target = int(answer["source"]), int(answer["target"])
        if source not in by_source:
            by_source[source] = bfs_hops(src, dst, vertex_ids, source, towards_origin=False)
        hops = int(by_source[source][_dense(vertex_ids, np.array([target]))[0]])
        expected = None if hops < 0 else hops
        if answer.get("distance") != expected:
            problems.append(
                f"distance {source}->{target}: served {answer.get('distance')!r}, BFS {expected!r}"
            )
    return problems


# ----------------------------------------------------------------------
# Triangles
# ----------------------------------------------------------------------
def triangles_per_vertex(
    src: np.ndarray, dst: np.ndarray, vertex_ids: np.ndarray
) -> np.ndarray:
    """Triangles through each vertex of the simple undirected graph.

    Orients every canonical edge from its lower-(degree, id) endpoint,
    lists the wedges ``u -> v, u -> w`` of each vertex's sorted forward
    adjacency and closes them with one binary search in the sorted edge
    keys; each triangle is found exactly once, at its lowest vertex.
    """
    n = vertex_ids.size
    s, d = _dense(vertex_ids, src), _dense(vertex_ids, dst)
    lo, hi = np.minimum(s, d), np.maximum(s, d)
    pairs = np.unique(lo[lo != hi] * n + hi[lo != hi])
    lo, hi = pairs // n, pairs % n
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
    tail = np.where(rank[lo] < rank[hi], lo, hi)
    head = np.where(rank[lo] < rank[hi], hi, lo)
    keys = np.sort(rank[tail] * n + rank[head])
    tail_rank, head_rank = keys // n, keys % n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail_rank, minlength=n), out=offsets[1:])

    counts = np.zeros(n, dtype=np.int64)
    # Pair forward edge i with each later forward edge of the same tail.
    later = offsets[tail_rank + 1] - np.arange(keys.size) - 1
    first = np.repeat(np.arange(keys.size), later)
    if first.size:
        starts = np.concatenate(([0], np.cumsum(later)[:-1]))
        second = first + 1 + (np.arange(first.size) - np.repeat(starts, later))
        v, w = head_rank[first], head_rank[second]  # v < w: the adjacency is sorted
        probe = v * n + w
        at = np.searchsorted(keys, probe)
        closed = keys[np.minimum(at, keys.size - 1)] == probe
        for corner in (tail_rank[first][closed], v[closed], w[closed]):
            counts += np.bincount(corner, minlength=n)
    by_vertex = np.empty(n, dtype=np.int64)
    by_vertex[np.argsort(rank)] = counts  # rank r belongs to vertex argsort(rank)[r]
    return by_vertex


def check_triangles(
    values: Mapping[int, int], src: np.ndarray, dst: np.ndarray, vertex_ids: np.ndarray
) -> List[str]:
    got, problems = _aligned("triangles", values, vertex_ids, np.int64)
    return problems or _first_mismatch(
        "triangles", got, triangles_per_vertex(src, dst, vertex_ids), vertex_ids
    )


# ----------------------------------------------------------------------
# Placement counts (partitioning metrics)
# ----------------------------------------------------------------------
def placement_counts(
    src: np.ndarray, dst: np.ndarray, partition_of: np.ndarray, num_partitions: int
) -> Dict[str, int]:
    """Replica accounting of an edge placement from first principles: one
    replica per distinct (vertex, partition) an incident edge lands in."""
    top = int(max(src.max(), dst.max())) + 1
    pairs = np.unique(
        np.concatenate((src, dst)) * num_partitions + np.concatenate((partition_of, partition_of))
    )
    replicas = np.bincount(pairs // num_partitions, minlength=top)
    return {
        "replicas": int(pairs.size),
        "placed_vertices": int((replicas > 0).sum()),
        "cut": int((replicas > 1).sum()),
        "comm_cost": int(replicas[replicas > 1].sum()),
        "max_partition_edges": int(np.bincount(partition_of, minlength=num_partitions).max()),
    }


def check_placement_counts(
    reported: Mapping[str, int],
    src: np.ndarray,
    dst: np.ndarray,
    partition_of: np.ndarray,
    num_partitions: int,
) -> List[str]:
    """``reported`` holds the program's values under the oracle's key names."""
    expected = placement_counts(src, dst, partition_of, num_partitions)
    return [
        f"placement: {key} reported {reported[key]!r}, oracle {value!r}"
        for key, value in expected.items()
        if key in reported and int(reported[key]) != value
    ]
