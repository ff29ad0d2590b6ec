"""Catalog of the paper's nine datasets and their synthetic analogues.

Each :class:`DatasetSpec` records the structural targets taken from Table 1
of the paper (vertex/edge counts, symmetry, leaf-vertex fractions,
component count) and a generator recipe that reproduces that *shape* at a
laptop-friendly scale.  ``scale`` multiplies the analogue's size; the
default scale keeps the full nine-dataset sweep fast enough for the
benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.graph import Graph
from ..errors import DatasetError
from .generators import road_network, social_graph

__all__ = [
    "DatasetSpec",
    "PAPER_DATASET_NAMES",
    "dataset_names",
    "get_spec",
    "load_dataset",
    "load_all_datasets",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one dataset analogue plus the paper's reference values."""

    name: str
    description: str
    kind: str  # "road" or "social"
    builder: Callable[[float, int], Graph] = field(repr=False)
    paper_vertices: int = 0
    paper_edges: int = 0
    paper_symmetry: float = 100.0
    paper_components: int = 1
    paper_diameter: Optional[float] = None

    def build(self, scale: float = 1.0, seed: int = 0) -> Graph:
        """Generate the analogue at the requested scale and seed."""
        if not (math.isfinite(scale) and scale > 0):
            raise DatasetError(f"scale must be a positive finite number, got {scale}")
        graph = self.builder(scale, seed)
        graph.name = self.name
        return graph


def _scaled(value: int, scale: float, minimum: int = 2) -> int:
    return max(minimum, int(round(value * scale)))


def _road(rows: int, cols: int, components: int, diagonal_prob: float, name: str):
    def build(scale: float, seed: int) -> Graph:
        factor = scale ** 0.5
        return road_network(
            rows=_scaled(rows, factor),
            cols=_scaled(cols, factor),
            num_components=components,
            diagonal_prob=diagonal_prob,
            seed=seed,
            name=name,
        )

    return build


def _social(name: str, vertices: int, edges: int, **kwargs):
    def build(scale: float, seed: int) -> Graph:
        return social_graph(
            num_vertices=_scaled(vertices, scale),
            num_edges=_scaled(edges, scale),
            seed=seed,
            name=name,
            **kwargs,
        )

    return build


_SPECS: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    _SPECS[spec.name] = spec


_register(
    DatasetSpec(
        name="roadnet-pa",
        description="Pennsylvania road network analogue: 3 grid components, id locality",
        kind="road",
        builder=_road(rows=14, cols=14, components=3, diagonal_prob=0.02, name="roadnet-pa"),
        paper_vertices=1_088_092,
        paper_edges=3_083_796,
        paper_symmetry=100.0,
        paper_components=1052,
        paper_diameter=float("inf"),
    )
)
_register(
    DatasetSpec(
        name="youtube",
        description="YouTube social graph analogue: undirected, one component, communities",
        kind="social",
        builder=_social(
            "youtube",
            vertices=640,
            edges=2300,
            exponent=2.3,
            undirected=True,
            triadic_closure=0.35,
            connect=True,
            num_components=1,
            shuffle_ids=True,
        ),
        paper_vertices=1_134_890,
        paper_edges=2_987_624,
        paper_symmetry=100.0,
        paper_components=1,
        paper_diameter=20.0,
    )
)
_register(
    DatasetSpec(
        name="roadnet-tx",
        description="Texas road network analogue: 4 grid components, id locality",
        kind="road",
        builder=_road(rows=14, cols=14, components=4, diagonal_prob=0.02, name="roadnet-tx"),
        paper_vertices=1_379_917,
        paper_edges=3_843_320,
        paper_symmetry=100.0,
        paper_components=1766,
        paper_diameter=float("inf"),
    )
)
_register(
    DatasetSpec(
        name="pokec",
        description="Pokec analogue: directed, ~54% reciprocity, dense, one component",
        kind="social",
        builder=_social(
            "pokec",
            vertices=900,
            edges=14000,
            exponent=2.4,
            reciprocity=0.40,
            triadic_closure=0.4,
            zero_in_fraction=0.07,
            zero_out_fraction=0.12,
            connect=True,
            num_components=1,
            shuffle_ids=True,
        ),
        paper_vertices=1_632_803,
        paper_edges=30_622_564,
        paper_symmetry=54.34,
        paper_components=1,
        paper_diameter=11.0,
    )
)
_register(
    DatasetSpec(
        name="roadnet-ca",
        description="California road network analogue: 3 grid components, id locality",
        kind="road",
        builder=_road(rows=19, cols=19, components=3, diagonal_prob=0.02, name="roadnet-ca"),
        paper_vertices=1_965_206,
        paper_edges=5_533_214,
        paper_symmetry=100.0,
        paper_components=1052,
        paper_diameter=float("inf"),
    )
)
_register(
    DatasetSpec(
        name="orkut",
        description="Orkut analogue: undirected, very dense, triangle heavy, one component",
        kind="social",
        builder=_social(
            "orkut",
            vertices=1600,
            edges=36000,
            exponent=2.2,
            undirected=True,
            triadic_closure=0.5,
            connect=True,
            num_components=1,
            shuffle_ids=True,
        ),
        paper_vertices=3_072_441,
        paper_edges=117_185_083,
        paper_symmetry=100.0,
        paper_components=1,
        paper_diameter=9.0,
    )
)
_register(
    DatasetSpec(
        name="soclivejournal",
        description="socLiveJournal analogue: directed, 75% reciprocity, a few components",
        kind="social",
        builder=_social(
            "soclivejournal",
            vertices=2700,
            edges=22000,
            exponent=2.3,
            reciprocity=0.68,
            triadic_closure=0.3,
            zero_in_fraction=0.074,
            zero_out_fraction=0.111,
            connect=True,
            num_components=4,
            shuffle_ids=True,
        ),
        paper_vertices=4_847_571,
        paper_edges=68_993_773,
        paper_symmetry=75.03,
        paper_components=1876,
        paper_diameter=float("inf"),
    )
)
_register(
    DatasetSpec(
        name="follow-jul",
        description="Twitter follow crawl (July) analogue: low reciprocity, superstars, many leaves",
        kind="social",
        builder=_social(
            "follow-jul",
            vertices=6500,
            edges=30000,
            exponent=2.1,
            reciprocity=0.30,
            triadic_closure=0.25,
            zero_in_fraction=0.45,
            zero_out_fraction=0.25,
            superstar_count=12,
            superstar_boost=40.0,
            connect=True,
            num_components=12,
            shuffle_ids=True,
        ),
        paper_vertices=17_172_142,
        paper_edges=136_772_349,
        paper_symmetry=37.57,
        paper_components=52,
        paper_diameter=float("inf"),
    )
)
_register(
    DatasetSpec(
        name="follow-dec",
        description="Twitter follow crawl (December) analogue: the largest dataset",
        kind="social",
        builder=_social(
            "follow-dec",
            vertices=9500,
            edges=42000,
            exponent=2.1,
            reciprocity=0.30,
            triadic_closure=0.25,
            zero_in_fraction=0.52,
            zero_out_fraction=0.18,
            superstar_count=16,
            superstar_boost=45.0,
            connect=True,
            num_components=11,
            shuffle_ids=True,
        ),
        paper_vertices=26_339_971,
        paper_edges=204_912_922,
        paper_symmetry=37.57,
        paper_components=47,
        paper_diameter=float("inf"),
    )
)

#: All nine datasets, ordered by paper vertex count as in Table 1.
PAPER_DATASET_NAMES: List[str] = [
    "roadnet-pa",
    "youtube",
    "roadnet-tx",
    "pokec",
    "roadnet-ca",
    "orkut",
    "soclivejournal",
    "follow-jul",
    "follow-dec",
]


def dataset_names() -> List[str]:
    """Names of every dataset in the catalog, in Table 1 order."""
    return list(PAPER_DATASET_NAMES)


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset specification by name (case-insensitive)."""
    lowered = name.lower()
    for key, spec in _SPECS.items():
        if key.lower() == lowered:
            return spec
    raise DatasetError(f"unknown dataset {name!r}; available: {', '.join(_SPECS)}")


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Graph:
    """Generate the analogue of a paper dataset at the requested scale."""
    return get_spec(name).build(scale=scale, seed=seed)


def load_all_datasets(scale: float = 1.0, seed: int = 0) -> Dict[str, Graph]:
    """Generate every paper dataset analogue, keyed by name, in Table 1 order."""
    return {name: load_dataset(name, scale=scale, seed=seed) for name in PAPER_DATASET_NAMES}
