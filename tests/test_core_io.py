"""Unit tests for edge-list reading and writing."""

import os

import pytest

from repro.core.graph import Graph
from repro.core.io import atomic_write_bytes, read_edge_list, write_edge_list
from repro.errors import GraphIOError


class TestReadEdgeList:
    def test_round_trip(self, tmp_path, small_social_graph):
        path = tmp_path / "graph.txt"
        write_edge_list(small_social_graph, path)
        loaded = read_edge_list(path)
        assert loaded.edge_set() == small_social_graph.edge_set()
        assert loaded.num_edges == small_social_graph.num_edges

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# SNAP style header\n\n% another comment\n0\t1\n1\t2\n")
        graph = read_edge_list(path)
        assert graph.edge_set() == {(0, 1), (1, 2)}

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("0 1 0.5\n1 2 0.25\n")
        graph = read_edge_list(path)
        assert graph.edge_set() == {(0, 1), (1, 2)}

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphIOError):
            read_edge_list(path)

    def test_non_integer_vertex_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphIOError):
            read_edge_list(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphIOError):
            read_edge_list(tmp_path / "does-not-exist.txt")

    def test_default_name_is_filename(self, tmp_path):
        path = tmp_path / "roads.txt"
        path.write_text("0 1\n")
        assert read_edge_list(path).name == "roads.txt"


class TestWriteEdgeList:
    def test_header_contains_counts(self, tmp_path, triangle_graph):
        path = tmp_path / "out.tsv"
        write_edge_list(triangle_graph, path)
        content = path.read_text()
        assert content.startswith("#")
        assert "vertices: 3 edges: 3" in content

    def test_no_header_option(self, tmp_path, triangle_graph):
        path = tmp_path / "out.tsv"
        write_edge_list(triangle_graph, path, header=False)
        assert not path.read_text().startswith("#")

    def test_custom_delimiter(self, tmp_path):
        graph = Graph([0], [1])
        path = tmp_path / "out.csv"
        write_edge_list(graph, path, delimiter=",", header=False)
        assert path.read_text().strip() == "0,1"

    def test_write_to_unwritable_path_raises(self, tmp_path, triangle_graph):
        with pytest.raises(GraphIOError):
            write_edge_list(triangle_graph, tmp_path / "missing-dir" / "out.txt")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_descriptor_adoption_closes_it_and_removes_the_temp(tmp_path, monkeypatch):
    def refuse(fd, *args, **kwargs):
        raise RuntimeError("fdopen failed")

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fdopen", refuse)
    with pytest.raises(RuntimeError, match="fdopen failed"):
        atomic_write_bytes(tmp_path / "out.bin", b"payload")
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert list(tmp_path.iterdir()) == []
