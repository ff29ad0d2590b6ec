"""The only door between the benchmark and ``repro``.

Later PRs are judged with this directory frozen, so the paths that
produce end-to-end numbers may call only names ROADMAP does not schedule
for deletion.  Those are imported here, once, and nowhere else:

* ``Session(...).plan()...run()`` and ``ArtifactStore``,
* ``load_dataset``, ``PartitionedGraph.partition``,
* ``pagerank`` / ``connected_components`` / ``shortest_paths`` /
  ``triangle_count`` / ``choose_landmarks`` / ``run_algorithm``,
* ``SyntheticChunkSource`` and ``ingest_source``,
* the ``repro serve`` CLI and its documented endpoints (``/health``,
  ``/distance``, ``/vertex``, ``/neighbors``, ``/pagerank/top``,
  ``POST /shutdown``).

Never: the dict shims (``vertex_partitions()``), ``analysis/experiments``,
``vectorized=False``, ``engine_stats()``, ``CacheStats`` field names or
the ``/stats`` JSON layout.

Everything else a traced run looks at — ``pgraph.routing``, the
``vectorized`` backend, ``/stats`` counters, HDRF's ``begin_stream`` — is
a *layer probe*: it goes through :meth:`Probes.call`, so a name a later
PR removes reads as ``None`` plus one ``probes_missing`` entry instead of
a failed run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TypeVar

from repro import (
    PAPER_PARTITIONER_NAMES,
    ArtifactStore,
    PartitionedGraph,
    Session,
    choose_landmarks,
    connected_components,
    load_dataset,
    pagerank,
    run_algorithm,
    shortest_paths,
    triangle_count,
)
from repro.ooc import SyntheticChunkSource, ingest_source

__all__ = [
    "PAPER_PARTITIONER_NAMES",
    "SERVE_COMMAND",
    "ArtifactStore",
    "PartitionedGraph",
    "Probes",
    "Session",
    "SyntheticChunkSource",
    "choose_landmarks",
    "connected_components",
    "ingest_source",
    "load_dataset",
    "pagerank",
    "run_algorithm",
    "shortest_paths",
    "triangle_count",
]

#: ``python <this> ...`` starts the daemon; arguments follow the README's
#: ``repro serve`` section.
SERVE_COMMAND = ("-m", "repro.cli", "serve")

_T = TypeVar("_T")

#: What a renamed, removed or re-shaped name raises at the call site.
_MISSING = (ImportError, AttributeError, TypeError, KeyError, NotImplementedError)


class Probes:
    """Runs layer probes; collects the ones whose target no longer exists."""

    def __init__(self) -> None:
        self.missing: List[Dict[str, str]] = []

    def call(self, name: str, probe: Callable[[], _T]) -> Optional[_T]:
        try:
            return probe()
        except _MISSING as error:
            self.missing.append({"probe": name, "error": f"{type(error).__name__}: {error}"})
            return None
