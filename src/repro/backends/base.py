"""The ``Backend`` protocol and the name-based backend registry.

A backend is an execution strategy for the paper's algorithms.  Every
backend answers the same question — "what are the final vertex values of
algorithm X on graph G?" — but may compute it very differently: the
``reference`` backend runs the algorithms' array kernels through the
Pregel engine over the placement, priced by its cluster cost model, while
the ``vectorized`` backend runs whole-graph numpy kernels over the CSR
view.  Future scaling work (multiprocessing, sharding, out-of-core) plugs
in as further registered backends.

Backends accept either a :class:`~repro.core.graph.Graph` or a
:class:`~repro.engine.partitioned_graph.PartitionedGraph`; backends that
do not model partitioning simply use the underlying graph.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Union

from ..algorithms.result import AlgorithmResult
from ..core.graph import Graph
from ..engine.cluster import ClusterConfig
from ..engine.cost_model import CostParameters
from ..engine.partitioned_graph import PartitionedGraph
from ..errors import BackendError, EngineError, require_count

__all__ = [
    "Backend",
    "GraphLike",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_graph",
]

GraphLike = Union[Graph, PartitionedGraph]


class Backend(ABC):
    """One execution strategy for the paper's algorithms.

    Subclasses set :attr:`name` (the registry key) and implement
    :meth:`_run` for the four algorithm abbreviations (``PR``, ``CC``,
    ``TR``, ``SSSP``) plus :meth:`_degrees` for the degree kernels.  The
    public :meth:`run` / :meth:`degrees` wrappers stamp every result with
    the backend name and measured wall-clock time, so timing is uniform
    no matter how a backend is invoked.
    """

    #: Registry key; also recorded on every result this backend produces.
    name: str = ""

    #: Whether results depend on how the graph is partitioned.  The
    #: experiment harness runs partition-oblivious backends once per
    #: dataset instead of once per partitioner.
    uses_partitioning: bool = False

    def run(
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
        """Run one algorithm by abbreviation and return its timed result.

        Backends that do not simulate a cluster accept (and ignore)
        ``cluster`` / ``cost_parameters`` so callers can switch backends
        without changing call sites.  Likewise ``engine_workers``: the
        partition-aware Pregel backends fan supersteps out across a
        shared-memory process pool when it is >= 2, other backends ignore
        it (results are identical either way).  A non-integral
        ``num_iterations`` (``2.5``, ``nan``, ``inf``, ``True``) is an
        :class:`~repro.errors.EngineError` on every backend.
        """
        started = time.perf_counter()
        result = self._run(
            algorithm,
            graph,
            num_iterations=require_count(num_iterations, "num_iterations", 0, EngineError),
            landmarks=landmarks,
            landmark_seed=landmark_seed,
            cluster=cluster,
            cost_parameters=cost_parameters,
            engine_workers=engine_workers,
        )
        result.wall_seconds = time.perf_counter() - started
        result.backend = self.name
        return result

    def degrees(self, graph: GraphLike, direction: str = "out") -> AlgorithmResult:
        """Per-vertex in-, out- or total degrees (``direction`` in out/in/both)."""
        started = time.perf_counter()
        result = self._degrees(graph, direction=direction)
        result.wall_seconds = time.perf_counter() - started
        result.backend = self.name
        return result

    @abstractmethod
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
        """Backend-specific execution behind :meth:`run`."""

    @abstractmethod
    def _degrees(self, graph: GraphLike, direction: str = "out") -> AlgorithmResult:
        """Backend-specific execution behind :meth:`degrees`."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


def resolve_graph(graph: GraphLike) -> Graph:
    """The plain :class:`Graph` behind either accepted input type."""
    if isinstance(graph, PartitionedGraph):
        return graph.graph
    if isinstance(graph, Graph):
        return graph
    raise BackendError(
        f"expected a Graph or PartitionedGraph, got {type(graph).__name__}"
    )


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Register a backend instance under its ``name``; returns the backend."""
    if not backend.name:
        raise BackendError("backend must define a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def available_backends() -> List[str]:
    """Names of all registered backends, in registration order."""
    return list(_REGISTRY)
