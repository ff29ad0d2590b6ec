"""Chunk sources: parsing identity, chunk-size invariance, generators."""

import math

import numpy as np
import pytest

from repro.core.io import read_edge_list, write_edge_list
from repro.errors import GraphIOError
from repro.ooc import (
    EdgeListChunkSource,
    GraphChunkSource,
    SyntheticChunkSource,
    materialize,
)


def _collect(source):
    """Concatenate a chunk stream into (src, dst) arrays."""
    chunks = list(source.chunks())
    if not chunks:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    return (
        np.concatenate([s for s, _ in chunks]),
        np.concatenate([d for _, d in chunks]),
    )


class TestEdgeListChunkSource:
    def test_matches_read_edge_list_on_round_trip(self, tmp_path, small_social_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, path)
        graph = read_edge_list(path)
        src, dst = _collect(EdgeListChunkSource(path, chunk_edges=37))
        np.testing.assert_array_equal(src, graph.src)
        np.testing.assert_array_equal(dst, graph.dst)

    def test_chunk_size_invariance(self, tmp_path, small_social_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, path)
        baseline = _collect(EdgeListChunkSource(path, chunk_edges=10_000))
        for chunk_edges in (1, 7, 64, 701):
            src, dst = _collect(EdgeListChunkSource(path, chunk_edges=chunk_edges))
            np.testing.assert_array_equal(src, baseline[0])
            np.testing.assert_array_equal(dst, baseline[1])

    def test_chunks_are_bounded(self, tmp_path, small_social_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, path)
        for src, dst in EdgeListChunkSource(path, chunk_edges=50).chunks():
            assert len(src) == len(dst) <= 50

    def test_num_edges_counts_data_lines(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# header\n\n% note\n0\t1\n1\t2\n2\t0\n")
        source = EdgeListChunkSource(path)
        assert source.num_edges == 3
        # Known (cached) after a full pass too.
        _collect(source)
        assert source.num_edges == 3

    def test_missing_column_message_matches_seed_reader(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n7\n")
        expected = f"{path}:2: expected at least two fields, got '7'"
        with pytest.raises(GraphIOError, match="expected at least two fields") as info:
            _collect(EdgeListChunkSource(path))
        assert str(info.value) == expected
        # read_edge_list is built on this source: identical diagnostics.
        with pytest.raises(GraphIOError) as seed_info:
            read_edge_list(path)
        assert str(seed_info.value) == expected

    def test_non_integer_message_matches_seed_reader(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 2\na b\n")
        expected = f"{path}:3: non-integer vertex id in 'a b'"
        with pytest.raises(GraphIOError) as info:
            _collect(EdgeListChunkSource(path, chunk_edges=2))
        assert str(info.value) == expected
        with pytest.raises(GraphIOError) as seed_info:
            read_edge_list(path)
        assert str(seed_info.value) == expected

    def test_python_int_forms_numpy_rejects_are_accepted(self, tmp_path):
        # int("1_0") == 10 but numpy's bulk parser rejects it; the
        # fallback keeps the chunked reader value-identical to the seed.
        path = tmp_path / "odd.txt"
        path.write_text("1_0 2\n+3 4\n")
        src, dst = _collect(EdgeListChunkSource(path))
        np.testing.assert_array_equal(src, [10, 3])
        np.testing.assert_array_equal(dst, [2, 4])

    def test_missing_file_raises_graph_io_error(self, tmp_path):
        with pytest.raises(GraphIOError, match="cannot read edge list"):
            _collect(EdgeListChunkSource(tmp_path / "nope.txt"))

    def test_materialize_round_trip(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("0 1\n1 2\n1 2\n2 2\n")
        graph = materialize(EdgeListChunkSource(path, chunk_edges=2), name="snap")
        assert graph.name == "snap"
        assert list(zip(graph.src, graph.dst)) == [(0, 1), (1, 2), (1, 2), (2, 2)]


class TestSyntheticChunkSource:
    def test_deterministic_for_a_seed(self):
        a = _collect(SyntheticChunkSource(100, 500, seed=3))
        b = _collect(SyntheticChunkSource(100, 500, seed=3))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = _collect(SyntheticChunkSource(100, 500, seed=4))
        assert not np.array_equal(a[0], c[0])

    def test_chunk_size_invariance(self):
        baseline = _collect(SyntheticChunkSource(64, 333, seed=9, chunk_edges=1000))
        for chunk_edges in (1, 13, 100):
            src, dst = _collect(
                SyntheticChunkSource(64, 333, seed=9, chunk_edges=chunk_edges)
            )
            np.testing.assert_array_equal(src, baseline[0])
            np.testing.assert_array_equal(dst, baseline[1])

    def test_vertex_ids_stay_in_range(self):
        src, dst = _collect(SyntheticChunkSource(50, 2000, seed=1, skew=3.0))
        assert len(src) == 2000
        for column in (src, dst):
            assert column.min() >= 0
            assert column.max() < 50

    def test_skew_concentrates_on_low_ids(self):
        skewed, _ = _collect(SyntheticChunkSource(1000, 5000, seed=2, skew=4.0))
        uniform, _ = _collect(SyntheticChunkSource(1000, 5000, seed=2, skew=1.0))
        assert np.median(skewed) < np.median(uniform)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            SyntheticChunkSource(0, 10, seed=0)
        with pytest.raises(ValueError):
            SyntheticChunkSource(10, -1, seed=0)
        with pytest.raises(ValueError):
            SyntheticChunkSource(10, 10, seed=0, skew=0.0)

    @pytest.mark.parametrize("skew", [float("nan"), float("inf")])
    def test_non_finite_skew_raises(self, skew):
        # A nan or infinite exponent would collapse every endpoint to one vertex.
        with pytest.raises(ValueError, match="finite"):
            SyntheticChunkSource(10, 10, seed=0, skew=skew)


@pytest.mark.parametrize("chunk_edges", [2.5, math.nan, math.inf, True, 0])
def test_chunk_edges_must_be_a_positive_integer(tmp_path, small_social_graph, chunk_edges):
    for make in (
        lambda: EdgeListChunkSource(tmp_path / "edges.txt", chunk_edges=chunk_edges),
        lambda: SyntheticChunkSource(10, 10, seed=0, chunk_edges=chunk_edges),
        lambda: GraphChunkSource(small_social_graph, chunk_edges=chunk_edges),
    ):
        with pytest.raises(ValueError, match="chunk_edges"):
            make()


class TestGraphChunkSource:
    def test_streams_the_exact_edge_arrays(self, small_social_graph):
        source = GraphChunkSource(small_social_graph, chunk_edges=41)
        src, dst = _collect(source)
        np.testing.assert_array_equal(src, small_social_graph.src)
        np.testing.assert_array_equal(dst, small_social_graph.dst)
        assert source.num_edges == small_social_graph.num_edges
        assert source.name == small_social_graph.name

    def test_carries_the_full_vertex_id_set(self):
        from repro.core.graph import Graph

        # Vertex 99 is isolated: invisible to the edge stream alone.
        graph = Graph([0, 1], [1, 0], vertices=[0, 1, 99], name="iso")
        source = GraphChunkSource(graph)
        np.testing.assert_array_equal(source.vertex_ids, graph.vertex_ids)
        assert 99 in set(int(v) for v in source.vertex_ids)
