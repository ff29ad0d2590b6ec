"""repro: reproduction of "Cut to Fit: Tailoring the Partitioning to the Computation".

The package re-implements, in pure Python, the full experimental pipeline
of Kolokasis & Pratikakis' study of vertex-cut partitioning in GraphX:

* :mod:`repro.core` — the property-graph substrate and dataset statistics;
* :mod:`repro.datasets` — synthetic analogues of the paper's nine datasets;
* :mod:`repro.partitioning` — the six evaluated partitioners (plus
  extensions) and :mod:`repro.metrics` — the five partitioning metrics;
* :mod:`repro.engine` — a GraphX-like BSP engine with a simulated cluster
  cost model;
* :mod:`repro.algorithms` — PageRank, Connected Components, Triangle Count
  and SSSP on top of the engine;
* :mod:`repro.backends` — pluggable execution backends: the ``reference``
  cost-model simulator and the ``vectorized`` CSR/numpy kernels;
* :mod:`repro.session` — the experiment API (every table and figure is a
  plan over it): :class:`Session`
  (memoized dataset loads + partitioned-graph cache),
  :class:`ExperimentPlan` (the declarative grid planner) and
  :class:`ResultSet` (queryable, serialisable run records);
* :mod:`repro.analysis` — correlation analysis, run records and the
  "cut to fit" partitioner advisor;
* :mod:`repro.serve` — a long-lived HTTP query daemon over preloaded
  partitioned graphs: landmark-based distance estimates, batched
  multi-source exact SSSP, top-k PageRank, components and neighborhoods
  (``python -m repro.cli serve``).

Quickstart
----------
>>> from repro import Session
>>> session = Session(scale=0.2)
>>> results = (
...     session.plan()
...     .datasets("youtube")
...     .partitioners("2D", "DC")
...     .granularities(16)
...     .algorithms("PR")
...     .run()
... )
>>> results.best().partitioner in {"2D", "DC"}
True
>>> session.stats.partition_builds
2
"""

from ._version import __version__
from .algorithms import (
    AlgorithmResult,
    LandmarkMatrix,
    build_landmark_matrix,
    choose_landmarks,
    connected_components,
    degree_count,
    multi_source_distances,
    pagerank,
    run_algorithm,
    shortest_paths,
    total_triangles,
    triangle_count,
)
from .analysis import (
    Recommendation,
    RunRecord,
    load_records,
    recommend_empirically,
    recommend_partitioner,
    save_records,
)
from .backends import (
    Backend,
    CSRGraph,
    available_backends,
    get_backend,
    register_backend,
    validate_backends,
)
from .core import Graph, GraphSummary, read_edge_list, summarize, write_edge_list
from .datasets import PAPER_DATASET_NAMES, load_all_datasets, load_dataset
from .engine import ClusterConfig, CostParameters, PartitionedGraph, paper_cluster, pregel
from .errors import (
    AnalysisError,
    BackendError,
    DatasetError,
    EngineError,
    GraphIOError,
    GraphValidationError,
    PartitioningError,
    ReproError,
)
from .metrics import PartitioningMetrics, compute_metrics
from .partitioning import (
    EXTENSION_PARTITIONER_NAMES,
    PAPER_PARTITIONER_NAMES,
    VertexMembership,
    canonical_partitioner_name,
    make_partitioner,
    paper_partitioners,
)
from .session import (
    ArtifactStore,
    CacheStats,
    ExperimentPlan,
    PlannedRun,
    ResultSet,
    Session,
    StoreInfo,
)

__all__ = [
    "__version__",
    "AlgorithmResult",
    "AnalysisError",
    "ArtifactStore",
    "Backend",
    "BackendError",
    "CSRGraph",
    "CacheStats",
    "ClusterConfig",
    "CostParameters",
    "DatasetError",
    "EngineError",
    "ExperimentPlan",
    "EXTENSION_PARTITIONER_NAMES",
    "Graph",
    "GraphIOError",
    "GraphSummary",
    "GraphValidationError",
    "LandmarkMatrix",
    "PAPER_DATASET_NAMES",
    "PAPER_PARTITIONER_NAMES",
    "PartitionedGraph",
    "PartitioningError",
    "PartitioningMetrics",
    "PlannedRun",
    "Recommendation",
    "ReproError",
    "ResultSet",
    "RunRecord",
    "Session",
    "StoreInfo",
    "VertexMembership",
    "available_backends",
    "build_landmark_matrix",
    "canonical_partitioner_name",
    "choose_landmarks",
    "compute_metrics",
    "connected_components",
    "degree_count",
    "get_backend",
    "load_all_datasets",
    "load_dataset",
    "load_records",
    "make_partitioner",
    "multi_source_distances",
    "pagerank",
    "paper_cluster",
    "paper_partitioners",
    "pregel",
    "read_edge_list",
    "recommend_empirically",
    "register_backend",
    "recommend_partitioner",
    "run_algorithm",
    "save_records",
    "shortest_paths",
    "summarize",
    "total_triangles",
    "triangle_count",
    "validate_backends",
    "write_edge_list",
]
