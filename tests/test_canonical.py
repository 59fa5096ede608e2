"""Tests for canonical codes and cheap containment screens."""

from __future__ import annotations

from repro.graph import Graph, cycle_graph, molecule_graph, path_graph
from repro.graph.canonical import (
    canonical_code,
    definitely_isomorphic,
    degree_profile_contained,
    quick_containment_screen,
    size_contained,
)
from repro.graph.operations import random_connected_subgraph


def relabelled_copy(graph: Graph) -> Graph:
    """Copy of a graph with permuted vertex identities."""
    vertices = graph.vertices()
    mapping = {vertex: f"x{index}" for index, vertex in enumerate(reversed(vertices))}
    return graph.relabel_vertices(mapping)


class TestCanonicalCode:
    def test_isomorphic_graphs_same_code(self):
        graph = molecule_graph(10, rng=5)
        assert canonical_code(graph) == canonical_code(relabelled_copy(graph))

    def test_non_isomorphic_graphs_differ(self):
        path = path_graph(["C", "C", "C", "C"])
        cycle = cycle_graph(["C", "C", "C", "C"])
        assert canonical_code(path) != canonical_code(cycle)

    def test_empty_graph(self):
        assert canonical_code(Graph()) == "empty"

    def test_size_guard_returns_none(self):
        graph = molecule_graph(30, rng=6)
        assert canonical_code(graph) is None

    def test_definitely_isomorphic_true(self, square_with_tail):
        assert definitely_isomorphic(square_with_tail, relabelled_copy(square_with_tail)) is True

    def test_definitely_isomorphic_false_fast(self, triangle):
        other = triangle.copy()
        other.set_label(0, "S")
        assert definitely_isomorphic(triangle, other) is False

    def test_definitely_isomorphic_undecided(self):
        graph = molecule_graph(30, rng=7)
        other = relabelled_copy(graph)
        assert definitely_isomorphic(graph, other) is None


class TestContainmentScreens:
    def test_subgraph_passes_all_screens(self):
        source = molecule_graph(20, rng=8)
        sub = random_connected_subgraph(source, 8, rng=9)
        assert size_contained(sub, source)
        assert degree_profile_contained(sub, source)
        assert quick_containment_screen(sub, source)

    def test_size_screen_rejects_larger_query(self):
        small = molecule_graph(5, rng=10)
        big = molecule_graph(10, rng=11)
        assert not size_contained(big, small)

    def test_label_screen_rejects_missing_label(self, triangle):
        query = path_graph(["C", "S"])
        assert not degree_profile_contained(query, triangle)

    def test_degree_screen_rejects_high_degree_query(self):
        hub = Graph()
        hub.add_vertex(0, "C")
        for leaf in range(1, 5):
            hub.add_vertex(leaf, "C")
            hub.add_edge(0, leaf)
        target = path_graph(["C"] * 5)
        assert not degree_profile_contained(hub, target)
