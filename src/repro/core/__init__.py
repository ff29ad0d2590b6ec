"""Property-graph substrate: graph data model, I/O and statistics."""

from .graph import Graph
from .io import read_edge_list, write_edge_list
from .properties import (
    GraphSummary,
    degree_histogram,
    degree_ratio_cdf,
    diameter,
    estimated_size_bytes,
    num_weakly_connected_components,
    summarize,
    symmetry_percent,
    triangle_count,
    weakly_connected_components,
    zero_in_percent,
    zero_out_percent,
)

__all__ = [
    "Graph",
    "GraphSummary",
    "read_edge_list",
    "write_edge_list",
    "degree_histogram",
    "degree_ratio_cdf",
    "diameter",
    "estimated_size_bytes",
    "num_weakly_connected_components",
    "summarize",
    "symmetry_percent",
    "triangle_count",
    "weakly_connected_components",
    "zero_in_percent",
    "zero_out_percent",
]
