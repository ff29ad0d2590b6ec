"""Deterministic synthetic graph generators.

The paper evaluates on SNAP datasets (road networks, YouTube, Pokec,
Orkut, socLiveJournal) and on two private Twitter "follow" crawls.  Those
inputs are either too large for a laptop-scale simulation or not publicly
available, so this module generates scaled-down synthetic analogues that
preserve the structural properties the paper's analysis relies on:

* **road networks** — near-planar grids with locality-preserving vertex
  ids, 100% edge symmetry, several connected components, negligible
  triangle density and a very large diameter;
* **social networks** — heavy-tailed degree distributions with tunable
  reciprocity, "leaf" vertices (zero in- or out-degree, an artefact of
  forest-fire crawling), triadic closure for triangle density, optional
  "superstar" hubs and randomised vertex ids (no id locality).

All generators are pure functions of their parameters and the seed.  The
order of their RNG draws is part of the output format: the bytes they
produce are pinned by ``tests/test_datasets_pins.py``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Dict, List

import numpy as np

from ..core.graph import Graph
from ..errors import DatasetError

__all__ = ["road_network", "social_graph", "ring_of_cliques"]


def road_network(
    rows: int,
    cols: int,
    num_components: int = 1,
    diagonal_prob: float = 0.03,
    seed: int = 0,
    name: str = "road",
) -> Graph:
    """Generate a road-network analogue: ``num_components`` rectangular grids.

    Vertex ids are assigned row-major inside each component, so nearby
    intersections have nearby ids — the id locality the paper's SC/DC
    partitioners are designed to exploit.  Every edge is reciprocated
    (100% symmetry) and a small fraction of diagonal shortcuts provides a
    non-zero but low triangle count, matching the RoadNet datasets.
    """
    if rows < 2 or cols < 2:
        raise DatasetError("road_network needs rows >= 2 and cols >= 2")
    if num_components < 1:
        raise DatasetError("num_components must be >= 1")
    if not 0.0 <= diagonal_prob <= 1.0:
        raise DatasetError("diagonal_prob must be in [0, 1]")

    rng = random.Random(seed)
    src: List[int] = []
    dst: List[int] = []

    def add_undirected(u: int, v: int) -> None:
        src.append(u)
        dst.append(v)
        src.append(v)
        dst.append(u)

    component_size = rows * cols
    for component in range(num_components):
        offset = component * component_size
        for r in range(rows):
            for c in range(cols):
                vertex = offset + r * cols + c
                if c + 1 < cols:
                    add_undirected(vertex, vertex + 1)
                if r + 1 < rows:
                    add_undirected(vertex, vertex + cols)
                if c + 1 < cols and r + 1 < rows and rng.random() < diagonal_prob:
                    add_undirected(vertex, vertex + cols + 1)
    return Graph(src, dst, name=name)


def _powerlaw_weights(n: int, exponent: float, superstar_count: int, superstar_boost: float) -> List[float]:
    """Zipf-like vertex weights with an optional boosted head of superstars."""
    weights = [(i + 1) ** (-1.0 / (exponent - 1.0)) for i in range(n)]
    for i in range(min(superstar_count, n)):
        weights[i] *= superstar_boost
    return weights


def _weighted_sampler(weights: List[float], draw: Callable[[], float]) -> Callable[[], int]:
    """Return a function sampling an index proportionally to ``weights``.

    Each call takes one ``draw()`` in [0, 1) and returns the lowest index
    whose running sum reaches ``draw() * total``, clamped to the last index.
    """
    cumulative = list(accumulate(weights))
    total = cumulative[-1]
    last = len(cumulative) - 1

    def sample() -> int:
        return bisect_left(cumulative, draw() * total, 0, last)

    return sample


def social_graph(
    num_vertices: int,
    num_edges: int,
    exponent: float = 2.3,
    reciprocity: float = 0.4,
    triadic_closure: float = 0.2,
    zero_in_fraction: float = 0.0,
    zero_out_fraction: float = 0.0,
    superstar_count: int = 0,
    superstar_boost: float = 20.0,
    connect: bool = True,
    num_components: int = 1,
    undirected: bool = False,
    shuffle_ids: bool = True,
    seed: int = 0,
    name: str = "social",
) -> Graph:
    """Generate a social-network analogue with a heavy-tailed degree distribution.

    Parameters
    ----------
    num_vertices, num_edges:
        Target sizes.  ``num_edges`` counts directed arcs; reciprocated and
        triadic-closure arcs are generated on top of the base arcs until
        the target is (approximately) reached.
    exponent:
        Power-law exponent of the attachment weights (2.1-2.6 covers the
        paper's datasets).
    reciprocity:
        Probability that a generated arc is immediately reciprocated;
        drives the Table 1 "Symm" column.
    triadic_closure:
        Probability that, after adding ``u -> v``, an extra arc closes a
        triangle through one of ``v``'s existing neighbours; drives the
        triangle count.
    zero_in_fraction, zero_out_fraction:
        Fraction of vertices that never receive (respectively never emit)
        arcs — the "leaf" vertices created by forest-fire crawling.
    superstar_count, superstar_boost:
        Number of hub vertices and the factor applied to their attachment
        weight; models the "superstar" users of the Twitter follow graphs.
    connect:
        When true, chain the vertices of each component with a few extra
        arcs so the graph has exactly ``num_components`` weak components.
    num_components:
        Number of weakly connected components to build.
    undirected:
        When true every arc is reciprocated (YouTube / Orkut analogues).
    shuffle_ids:
        Randomly permute vertex ids so they carry no locality (social
        graphs); road networks keep locality instead.
    """
    if num_vertices < 2:
        raise DatasetError("social_graph needs at least 2 vertices")
    if num_edges < 1:
        raise DatasetError("social_graph needs at least 1 edge")
    if not (math.isfinite(exponent) and exponent > 1.0):
        raise DatasetError(f"exponent must be finite and > 1, got {exponent}")
    for fraction, label in (
        (reciprocity, "reciprocity"),
        (triadic_closure, "triadic_closure"),
        (zero_in_fraction, "zero_in_fraction"),
        (zero_out_fraction, "zero_out_fraction"),
    ):
        if not 0.0 <= fraction <= 1.0:
            raise DatasetError(f"{label} must be in [0, 1]")
    if zero_in_fraction + zero_out_fraction >= 0.9:
        raise DatasetError("zero_in_fraction + zero_out_fraction must be < 0.9")
    if num_components < 1:
        raise DatasetError("num_components must be >= 1")
    if num_vertices * num_vertices >= 2**63:
        raise DatasetError("social_graph needs num_vertices**2 < 2**63 (arcs are int64 codes)")

    rng = random.Random(seed)
    if undirected:
        reciprocity = 1.0

    # The graph is one big "crawled" component plus (num_components - 1)
    # tiny satellite components, mirroring the structure of the follow and
    # socLiveJournal datasets (a giant component and a long tail of
    # fragments).
    satellite_count = num_components - 1
    satellite_size = 3
    main_vertices = num_vertices - satellite_count * satellite_size
    while satellite_count and main_vertices < max(2, num_vertices // 2):
        satellite_size = 2
        main_vertices = num_vertices - satellite_count * satellite_size
        if main_vertices < max(2, num_vertices // 2):
            satellite_count = max(0, (num_vertices // 4) // satellite_size)
            main_vertices = num_vertices - satellite_count * satellite_size
    if main_vertices < 2:
        raise DatasetError("num_components is too large for the requested num_vertices")

    # Roles: leaves-in never receive arcs, leaves-out never emit arcs.
    # Leaf roles are drawn from outside the high-weight "core" (the head of
    # the power law), as crawl leaves are overwhelmingly low-degree users.
    core_size = max(superstar_count, main_vertices // 10)
    candidate_indices = list(range(core_size, main_vertices))
    rng.shuffle(candidate_indices)
    num_zero_in = min(int(zero_in_fraction * main_vertices), len(candidate_indices))
    num_zero_out = min(
        int(zero_out_fraction * main_vertices),
        max(0, len(candidate_indices) - num_zero_in),
    )
    zero_in_set = set(candidate_indices[:num_zero_in])
    zero_out_set = set(candidate_indices[num_zero_in:num_zero_in + num_zero_out])

    weights = _powerlaw_weights(main_vertices, exponent, superstar_count, superstar_boost)
    # Receivers must not be zero-in vertices; emitters must not be zero-out.
    receiver_weights = [0.0 if i in zero_in_set else w for i, w in enumerate(weights)]
    emitter_weights = [0.0 if i in zero_out_set else w for i, w in enumerate(weights)]
    draw = rng.random
    sample_receiver = _weighted_sampler(receiver_weights, draw)
    sample_emitter = _weighted_sampler(emitter_weights, draw)

    # An arc u -> v is stored as the code u * n + v; since v < n, sorting
    # the codes orders the arcs exactly as sorting (u, v) pairs would.
    n = num_vertices
    arcs = set()
    add_code = arcs.add
    out_neighbours: Dict[int, List[int]] = {}

    def add_arc(u: int, v: int) -> bool:
        code = u * n + v
        if u == v or code in arcs:
            return False
        if u in zero_out_set or v in zero_in_set:
            return False
        add_code(code)
        neighbours = out_neighbours.get(u)
        if neighbours is None:
            out_neighbours[u] = [v]
        else:
            neighbours.append(v)
        return True

    # The loop stays sequential and keeps its draw order: triadic closure
    # reads the out-neighbour lists the loop itself builds.
    choose = rng.choice
    max_attempts = num_edges * 20
    attempts = 0
    while len(arcs) < num_edges and attempts < max_attempts:
        attempts += 1
        u = sample_emitter()
        v = sample_receiver()
        if not add_arc(u, v):
            continue
        if draw() < reciprocity:
            add_arc(v, u)
        if draw() < triadic_closure:
            neighbours = out_neighbours.get(v)
            if neighbours:
                w = choose(neighbours)
                if add_arc(u, w) and draw() < reciprocity:
                    add_arc(w, u)

    # Stitch the main component together so that it is weakly connected.
    if connect:
        anchor = None
        for member in range(main_vertices):
            if member in zero_out_set and member in zero_in_set:
                continue
            if anchor is not None:
                added = False
                if member not in zero_in_set and anchor not in zero_out_set:
                    added = add_arc(anchor, member)
                elif member not in zero_out_set and anchor not in zero_in_set:
                    added = add_arc(member, anchor)
                if added and draw() < reciprocity:
                    add_arc(member, anchor)
                    add_arc(anchor, member)
            anchor = member

    # Add the satellite components (small directed paths).
    for satellite in range(satellite_count):
        base = main_vertices + satellite * satellite_size
        for offset in range(satellite_size - 1):
            tail = base + offset
            add_code(tail * n + tail + 1)
            if draw() < reciprocity:
                add_code((tail + 1) * n + tail)

    # Optionally hide id locality behind a random permutation.
    permutation = list(range(num_vertices))
    if shuffle_ids:
        rng.shuffle(permutation)

    codes = np.fromiter(arcs, np.int64, len(arcs))
    codes.sort()
    ids = np.asarray(permutation, dtype=np.int64)
    return Graph(ids[codes // n], ids[codes % n], name=name)


def ring_of_cliques(num_cliques: int, clique_size: int, seed: int = 0, name: str = "cliques") -> Graph:
    """Small utility graph: cliques joined in a ring (useful in tests and examples)."""
    if num_cliques < 1 or clique_size < 2:
        raise DatasetError("need num_cliques >= 1 and clique_size >= 2")
    src: List[int] = []
    dst: List[int] = []

    def add_undirected(u: int, v: int) -> None:
        src.append(u)
        dst.append(v)
        src.append(v)
        dst.append(u)

    for clique in range(num_cliques):
        offset = clique * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                add_undirected(offset + i, offset + j)
        next_offset = ((clique + 1) % num_cliques) * clique_size
        if num_cliques > 1:
            add_undirected(offset, next_offset)
    return Graph(src, dst, name=name)
