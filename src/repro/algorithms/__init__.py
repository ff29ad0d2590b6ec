"""The paper's four evaluation algorithms plus degree counting, on the engine."""

from .connected_components import connected_components
from .degrees import degree_count
from .pagerank import pagerank
from .registry import (
    ALGORITHM_NAMES,
    algorithm_metric_of_interest,
    canonical_algorithm_name,
    run_algorithm,
)
from .result import AlgorithmResult
from .shortest_paths import (
    LandmarkMatrix,
    build_landmark_matrix,
    choose_landmarks,
    multi_source_distances,
    shortest_paths,
)
from .triangle_count import total_triangles, triangle_count

__all__ = [
    "AlgorithmResult",
    "ALGORITHM_NAMES",
    "LandmarkMatrix",
    "algorithm_metric_of_interest",
    "build_landmark_matrix",
    "canonical_algorithm_name",
    "choose_landmarks",
    "connected_components",
    "degree_count",
    "multi_source_distances",
    "pagerank",
    "run_algorithm",
    "shortest_paths",
    "total_triangles",
    "triangle_count",
]
