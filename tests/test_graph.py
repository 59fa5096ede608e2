"""Unit tests for the core Graph data structure."""

from __future__ import annotations

import pytest

from repro.errors import (
    DuplicateVertexError,
    EdgeNotFoundError,
    GraphError,
    VertexNotFoundError,
)
from repro.graph import Graph


class TestVertexOperations:
    def test_add_vertex_and_label(self):
        graph = Graph()
        graph.add_vertex(0, "C")
        assert graph.num_vertices == 1
        assert graph.label(0) == "C"

    def test_add_duplicate_vertex_raises(self):
        graph = Graph()
        graph.add_vertex(0, "C")
        with pytest.raises(DuplicateVertexError):
            graph.add_vertex(0, "O")

    def test_label_of_missing_vertex_raises(self):
        graph = Graph()
        with pytest.raises(VertexNotFoundError):
            graph.label(3)

    def test_set_label(self):
        graph = Graph()
        graph.add_vertex(0, "C")
        graph.set_label(0, "N")
        assert graph.label(0) == "N"

    def test_set_label_missing_vertex_raises(self):
        graph = Graph()
        with pytest.raises(VertexNotFoundError):
            graph.set_label(0, "N")

    def test_add_vertices_bulk(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O"), (2, "N")])
        assert graph.vertices() == [0, 1, 2]
        assert graph.label_set() == {"C", "O", "N"}

    def test_remove_vertex_removes_incident_edges(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O"), (2, "N")])
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.remove_vertex(1)
        assert graph.num_vertices == 2
        assert graph.num_edges == 0

    def test_remove_missing_vertex_raises(self):
        graph = Graph()
        with pytest.raises(VertexNotFoundError):
            graph.remove_vertex(9)

    def test_contains_and_len(self):
        graph = Graph()
        graph.add_vertex("a", "C")
        assert "a" in graph
        assert "b" not in graph
        assert len(graph) == 1

    def test_string_vertex_ids_supported(self):
        graph = Graph()
        graph.add_vertex("alice", "person")
        graph.add_vertex("bob", "person")
        graph.add_edge("alice", "bob")
        assert graph.has_edge("bob", "alice")


class TestEdgeOperations:
    def test_add_edge_both_directions(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O")])
        graph.add_edge(0, 1)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)
        assert graph.num_edges == 1

    def test_add_edge_missing_endpoint_raises(self):
        graph = Graph()
        graph.add_vertex(0, "C")
        with pytest.raises(VertexNotFoundError):
            graph.add_edge(0, 1)

    def test_self_loop_rejected(self):
        graph = Graph()
        graph.add_vertex(0, "C")
        with pytest.raises(GraphError):
            graph.add_edge(0, 0)

    def test_duplicate_edge_is_idempotent(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O")])
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        assert graph.num_edges == 1

    def test_edge_labels(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O")])
        graph.add_edge(0, 1, "double")
        assert graph.edge_label(0, 1) == "double"
        assert graph.edge_label(1, 0) == "double"

    def test_edge_label_missing_edge_raises(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O")])
        with pytest.raises(EdgeNotFoundError):
            graph.edge_label(0, 1)

    def test_remove_edge(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O")])
        graph.add_edge(0, 1)
        graph.remove_edge(1, 0)
        assert graph.num_edges == 0
        assert not graph.has_edge(0, 1)

    def test_remove_missing_edge_raises(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O")])
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(0, 1)

    def test_edges_listed_once(self):
        graph = Graph()
        graph.add_vertices([(0, "C"), (1, "O"), (2, "N")])
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert len(graph.edges()) == 2

    def test_degree_and_neighbors(self, triangle):
        assert triangle.degree(0) == 2
        assert triangle.neighbors(1) == {0, 2}


class TestStructure:
    def test_subgraph_preserves_labels_and_edges(self, square_with_tail):
        sub = square_with_tail.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert sub.label(0) == "C"

    def test_subgraph_missing_vertex_raises(self, triangle):
        with pytest.raises(VertexNotFoundError):
            triangle.subgraph([0, 7])

    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_relabel_vertices_default_dense(self, square_with_tail):
        relabelled = square_with_tail.relabel_vertices()
        assert set(relabelled.vertices()) == set(range(5))
        assert relabelled.num_edges == square_with_tail.num_edges

    def test_relabel_vertices_explicit_mapping(self, triangle):
        relabelled = triangle.relabel_vertices({0: "x", 1: "y", 2: "z"})
        assert relabelled.has_edge("x", "y")
        assert relabelled.label("z") == "O"

    def test_relabel_non_injective_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.relabel_vertices({0: "x", 1: "x", 2: "z"})


class TestHashingAndConversion:
    def test_label_counts(self, triangle):
        assert triangle.label_counts() == {"C": 2, "O": 1}
        assert triangle.label_set() == {"C", "O"}

    def test_dict_round_trip(self, square_with_tail):
        square_with_tail.add_edge(1, 3, "aromatic")
        payload = square_with_tail.to_dict()
        back = Graph.from_dict(payload)
        assert back.structural_equal(square_with_tail)

    def test_structural_equal_detects_difference(self, triangle):
        other = triangle.copy()
        other.remove_edge(0, 1)
        assert not triangle.structural_equal(other)

    def test_structural_equal_is_false_for_a_non_graph(self, triangle):
        # it used to return NotImplemented, which is truthy in an ``if``
        assert triangle.structural_equal("triangle") is False
        assert triangle.structural_equal(None) is False

    def test_repr_contains_sizes(self, triangle):
        assert "|V|=3" in repr(triangle)
        assert "|E|=3" in repr(triangle)
