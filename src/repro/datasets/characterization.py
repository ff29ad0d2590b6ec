"""Dataset characterisation: rebuilding Table 1 of the paper."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.graph import Graph
from ..core.properties import GraphSummary, summarize
from ..metrics.report import format_table
from .catalog import PAPER_DATASET_NAMES, get_spec, load_dataset

__all__ = [
    "DatasetCharacterization",
    "characterize",
    "build_table1",
    "format_table1",
]


@dataclass
class DatasetCharacterization:
    """One Table-1 row of the reproduction, with the paper's values alongside."""

    summary: GraphSummary
    paper_vertices: int
    paper_edges: int
    paper_symmetry: float
    paper_components: int

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for tabulation."""
        row = self.summary.as_row()
        row["paper_vertices"] = self.paper_vertices
        row["paper_edges"] = self.paper_edges
        row["paper_symm_pct"] = self.paper_symmetry
        row["paper_components"] = self.paper_components
        return row


def characterize(graph: Graph, name: Optional[str] = None) -> GraphSummary:
    """Characterise one graph (vertices, edges, symmetry, triangles, ...)."""
    return summarize(graph, name=name)


def build_table1(scale: float = 1.0, seed: int = 0) -> List[DatasetCharacterization]:
    """Characterise every dataset analogue, pairing it with the paper's numbers."""
    rows = []
    for name in PAPER_DATASET_NAMES:
        spec = get_spec(name)
        graph = load_dataset(name, scale=scale, seed=seed)
        rows.append(
            DatasetCharacterization(
                summary=characterize(graph, name=name),
                paper_vertices=spec.paper_vertices,
                paper_edges=spec.paper_edges,
                paper_symmetry=spec.paper_symmetry,
                paper_components=spec.paper_components,
            )
        )
    return rows


def format_table1(rows: List[DatasetCharacterization]) -> str:
    """Render the reproduced Table 1 as text."""
    flat = [row.as_row() for row in rows]
    columns = [
        "dataset",
        "vertices",
        "edges",
        "symm_pct",
        "zero_in_pct",
        "zero_out_pct",
        "triangles",
        "components",
        "diameter",
        "size_bytes",
    ]
    return format_table(flat, columns)

