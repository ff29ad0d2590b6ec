"""Name-based access to the paper's four evaluation algorithms.

The registry hides the per-algorithm calling conventions behind a single
``run_algorithm(name, pgraph, ...)`` entry point so the experiment harness
can sweep algorithms uniformly.  PageRank and Connected Components run for
10 iterations by default (the paper's setting); SSSP picks 5 deterministic
landmark vertices unless told otherwise.

``backend`` selects the execution strategy: the default (``None`` or
``"reference"``) runs the paper-faithful Pregel simulator below; any other
name is resolved through :mod:`repro.backends` (e.g. ``"vectorized"`` for
the CSR/numpy kernels).  Every result records which backend produced it
and the measured wall-clock time of the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.partitioned_graph import PartitionedGraph
from ..errors import EngineError
from .connected_components import connected_components
from .pagerank import pagerank
from .result import AlgorithmResult
from .shortest_paths import choose_landmarks, shortest_paths
from .triangle_count import triangle_count

__all__ = [
    "ALGORITHM_NAMES",
    "canonical_algorithm_name",
    "run_algorithm",
    "run_reference_algorithm",
    "algorithm_metric_of_interest",
]

#: The paper's four algorithms, with their abbreviations.
ALGORITHM_NAMES: List[str] = ["PR", "CC", "TR", "SSSP"]

#: Long-form spellings accepted wherever an algorithm name is parsed.
_ALGORITHM_ALIASES: Dict[str, str] = {
    "PAGERANK": "PR",
    "CONNECTEDCOMPONENTS": "CC",
    "TRIANGLECOUNT": "TR",
    "TRIANGLES": "TR",
    "SHORTESTPATHS": "SSSP",
}


def canonical_algorithm_name(name: str) -> str:
    """Resolve an algorithm name case-insensitively to its abbreviation.

    Accepts the paper's abbreviations (``"pr"`` -> ``"PR"``) and the
    long-form aliases (``"PageRank"``, ``"Triangles"``, ...).
    """
    key = str(name).upper()
    key = _ALGORITHM_ALIASES.get(key, key)
    if key not in ALGORITHM_NAMES:
        raise EngineError(
            f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}"
        )
    return key

#: The partitioning metric Section 4 found most predictive for each algorithm.
_METRIC_OF_INTEREST: Dict[str, str] = {
    "PR": "comm_cost",
    "CC": "comm_cost",
    "TR": "cut",
    "SSSP": "comm_cost",
}


def algorithm_metric_of_interest(name: str) -> str:
    """The metric the paper correlates against runtime for this algorithm."""
    key = name.upper()
    if key not in _METRIC_OF_INTEREST:
        raise EngineError(f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}")
    return _METRIC_OF_INTEREST[key]


def run_algorithm(
    name: str,
    pgraph: PartitionedGraph,
    num_iterations: int = 10,
    landmarks: Optional[List[int]] = None,
    landmark_seed: int = 7,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
    backend: Optional[str] = None,
    engine_workers: Optional[int] = None,
) -> AlgorithmResult:
    """Run one of the paper's algorithms by abbreviation (PR, CC, TR, SSSP).

    ``backend`` picks the execution strategy (``"reference"`` by default;
    see :mod:`repro.backends` for the registry).  The backend layer stamps
    every result with its name and measured wall-clock time, and rejects a
    non-integral ``num_iterations`` with :class:`~repro.errors.EngineError`.
    ``engine_workers >= 2`` fans the reference backend's Pregel supersteps
    out across a shared-memory process pool (bit-identical results; TR and
    non-Pregel backends ignore it).
    """
    from ..backends import get_backend

    return get_backend(backend or "reference").run(
        name,
        pgraph,
        num_iterations=num_iterations,
        landmarks=landmarks,
        landmark_seed=landmark_seed,
        cluster=cluster,
        cost_parameters=cost_parameters,
        engine_workers=engine_workers,
    )


def run_reference_algorithm(
    name: str,
    pgraph: PartitionedGraph,
    num_iterations: int = 10,
    landmarks: Optional[List[int]] = None,
    landmark_seed: int = 7,
    cluster: Optional[ClusterConfig] = None,
    cost_parameters: Optional[CostParameters] = None,
    engine_workers: Optional[int] = None,
) -> AlgorithmResult:
    """The simulator execution path behind the ``reference`` backend.

    ``engine_workers`` is forwarded to the Pregel-based algorithms (PR, CC,
    SSSP); triangle counting's aggregate phases stay serial.
    """
    key = name.upper()
    if key == "PR":
        return pagerank(
            pgraph,
            num_iterations=num_iterations,
            cluster=cluster,
            cost_parameters=cost_parameters,
            parallel_workers=engine_workers,
        )
    if key == "CC":
        return connected_components(
            pgraph,
            max_iterations=num_iterations,
            cluster=cluster,
            cost_parameters=cost_parameters,
            parallel_workers=engine_workers,
        )
    if key == "TR":
        return triangle_count(pgraph, cluster=cluster, cost_parameters=cost_parameters)
    if key == "SSSP":
        chosen = landmarks or choose_landmarks(pgraph, count=1, seed=landmark_seed)
        return shortest_paths(
            pgraph,
            landmarks=chosen,
            cluster=cluster,
            cost_parameters=cost_parameters,
            parallel_workers=engine_workers,
        )
    raise EngineError(f"unknown algorithm {name!r}; expected one of {ALGORITHM_NAMES}")
