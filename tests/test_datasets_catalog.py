"""Unit tests for the dataset catalog and the Table 1 characterisation."""

import math

import pytest

from repro.core import properties as props
from repro.datasets.catalog import (
    PAPER_DATASET_NAMES,
    dataset_names,
    get_spec,
    load_all_datasets,
    load_dataset,
)
from repro.datasets.characterization import (
    build_table1,
    format_table1,
)
from repro.errors import DatasetError

SCALE = 0.15  # keep the catalog tests fast
SEED = 3


class TestCatalog:
    def test_all_nine_paper_datasets_registered(self):
        assert len(PAPER_DATASET_NAMES) == 9
        assert dataset_names() == PAPER_DATASET_NAMES
        for name in PAPER_DATASET_NAMES:
            assert get_spec(name).name == name

    def test_lookup_is_case_insensitive(self):
        assert get_spec("ORKUT").name == "orkut"

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            get_spec("facebook")
        with pytest.raises(DatasetError):
            load_dataset("facebook")

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_invalid_scale_rejected(self, scale):
        with pytest.raises(DatasetError, match="scale"):
            load_dataset("orkut", scale=scale)

    def test_load_is_deterministic(self):
        first = load_dataset("pokec", scale=SCALE, seed=SEED)
        second = load_dataset("pokec", scale=SCALE, seed=SEED)
        assert first.edge_set() == second.edge_set()

    def test_scale_controls_size(self):
        small = load_dataset("youtube", scale=0.1, seed=SEED)
        large = load_dataset("youtube", scale=0.4, seed=SEED)
        assert large.num_vertices > small.num_vertices
        assert large.num_edges > small.num_edges

    def test_load_all_datasets_keys_and_names(self):
        graphs = load_all_datasets(scale=0.05, seed=SEED)
        assert list(graphs) == PAPER_DATASET_NAMES
        for name, graph in graphs.items():
            assert graph.name == name
            assert graph.num_edges > 0


class TestShapeFidelity:
    """The analogues must preserve the structural traits Table 1 reports."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return load_all_datasets(scale=SCALE, seed=SEED)

    def test_road_networks_are_symmetric_multi_component(self, graphs):
        for name in ("roadnet-pa", "roadnet-tx", "roadnet-ca"):
            graph = graphs[name]
            assert props.symmetry_percent(graph) == 100.0
            assert props.num_weakly_connected_components(graph) > 1
            assert math.isinf(props.diameter(graph))

    def test_undirected_social_graphs(self, graphs):
        for name in ("youtube", "orkut"):
            graph = graphs[name]
            assert props.symmetry_percent(graph) == 100.0
            assert props.num_weakly_connected_components(graph) == 1

    def test_directed_social_graphs_have_partial_symmetry(self, graphs):
        for name, low, high in (
            ("pokec", 35, 75),
            ("soclivejournal", 55, 90),
            ("follow-jul", 20, 60),
            ("follow-dec", 20, 60),
        ):
            symmetry = props.symmetry_percent(graphs[name])
            assert low <= symmetry <= high, f"{name}: {symmetry}"

    def test_follow_graphs_have_many_leaf_vertices(self, graphs):
        for name in ("follow-jul", "follow-dec"):
            assert props.zero_in_percent(graphs[name]) > 25.0

    def test_follow_graphs_have_many_components(self, graphs):
        for name in ("follow-jul", "follow-dec"):
            assert props.num_weakly_connected_components(graphs[name]) >= 5

    def test_orkut_is_densest_social_graph(self, graphs):
        def density(graph):
            return graph.num_edges / graph.num_vertices

        assert density(graphs["orkut"]) == max(density(g) for g in graphs.values())

    def test_datasets_ordered_by_paper_vertex_count(self):
        paper_sizes = [get_spec(name).paper_vertices for name in PAPER_DATASET_NAMES]
        assert paper_sizes == sorted(paper_sizes)


class TestCharacterization:
    def test_build_table1_rows(self):
        rows = build_table1(scale=0.05, seed=SEED)
        assert len(rows) == 9
        names = [row.summary.name for row in rows]
        assert names == PAPER_DATASET_NAMES
        for row in rows:
            assert row.paper_vertices > row.summary.num_vertices  # analogues are scaled down
            flat = row.as_row()
            assert flat["dataset"] == row.summary.name

    def test_format_table1_mentions_every_dataset(self):
        rows = build_table1(scale=0.05, seed=SEED)
        text = format_table1(rows)
        for name in PAPER_DATASET_NAMES:
            assert name in text
