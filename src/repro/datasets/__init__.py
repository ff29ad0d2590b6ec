"""Synthetic analogues of the paper's datasets and their characterisation."""

from .catalog import (
    PAPER_DATASET_NAMES,
    DatasetSpec,
    dataset_names,
    get_spec,
    load_all_datasets,
    load_dataset,
)
from .characterization import (
    DatasetCharacterization,
    build_table1,
    characterize,
    format_table1,
)
from .generators import ring_of_cliques, road_network, social_graph

__all__ = [
    "PAPER_DATASET_NAMES",
    "DatasetSpec",
    "DatasetCharacterization",
    "build_table1",
    "characterize",
    "dataset_names",
    "format_table1",
    "get_spec",
    "load_all_datasets",
    "load_dataset",
    "ring_of_cliques",
    "road_network",
    "social_graph",
]
