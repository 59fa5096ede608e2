"""Unit tests for the VF2 subgraph isomorphism engine."""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError
from repro.graph import Graph, complete_graph, cycle_graph, path_graph
from repro.isomorphism import VF2Matcher


def verify_mapping(query: Graph, target: Graph, mapping: dict) -> None:
    """Check that a returned mapping really is a monomorphism."""
    assert len(set(mapping.values())) == len(mapping) == query.num_vertices
    for q_vertex, t_vertex in mapping.items():
        assert query.label(q_vertex) == target.label(t_vertex)
    for u, v in query.edges():
        assert target.has_edge(mapping[u], mapping[v])


class TestBasicMatching:
    def test_path_in_triangle(self, triangle):
        query = path_graph(["C", "O"])
        result = VF2Matcher().find_embedding(query, triangle)
        assert result.found
        verify_mapping(query, triangle, result.mapping)

    def test_missing_label_rejected(self, triangle):
        query = path_graph(["C", "S"])
        assert not VF2Matcher().is_subgraph(query, triangle)

    def test_query_larger_than_target_rejected(self, triangle):
        query = complete_graph(["C", "C", "O", "O"])
        assert not VF2Matcher().is_subgraph(query, triangle)

    def test_empty_query_always_matches(self, triangle):
        result = VF2Matcher().find_embedding(Graph(), triangle)
        assert result.found
        assert result.mapping == {}

    def test_exact_graph_matches_itself(self, square_with_tail):
        assert VF2Matcher().is_subgraph(square_with_tail, square_with_tail)

    def test_triangle_not_in_square(self):
        square = cycle_graph(["C", "C", "C", "C"])
        triangle = cycle_graph(["C", "C", "C"])
        assert not VF2Matcher().is_subgraph(triangle, square)

    def test_non_induced_semantics(self):
        # a path C-C-C embeds into a triangle even though the triangle has an
        # extra edge between the images of the path's endpoints
        path = path_graph(["C", "C", "C"])
        triangle = cycle_graph(["C", "C", "C"])
        assert VF2Matcher().is_subgraph(path, triangle)

    def test_disconnected_query(self):
        query = Graph()
        query.add_vertex(0, "C")
        query.add_vertex(1, "O")
        target = path_graph(["C", "N", "O"])
        assert VF2Matcher().is_subgraph(query, target)

    def test_mapping_is_reported(self, square_with_tail):
        query = path_graph(["O", "N"])
        result = VF2Matcher().find_embedding(query, square_with_tail)
        assert result.found
        verify_mapping(query, square_with_tail, result.mapping)


class TestEdgeLabels:
    def make_target(self) -> Graph:
        target = Graph()
        target.add_vertices([(0, "C"), (1, "C"), (2, "O")])
        target.add_edge(0, 1, "single")
        target.add_edge(1, 2, "double")
        return target

    def test_edge_label_respected(self):
        target = self.make_target()
        query = Graph()
        query.add_vertices([(0, "C"), (1, "O")])
        query.add_edge(0, 1, "double")
        assert VF2Matcher().is_subgraph(query, target)

    def test_wrong_edge_label_rejected(self):
        target = self.make_target()
        query = Graph()
        query.add_vertices([(0, "C"), (1, "O")])
        query.add_edge(0, 1, "single")
        assert not VF2Matcher().is_subgraph(query, target)

    def test_unlabelled_query_edge_matches_any(self):
        target = self.make_target()
        query = Graph()
        query.add_vertices([(0, "C"), (1, "O")])
        query.add_edge(0, 1)
        assert VF2Matcher().is_subgraph(query, target)


class TestEnumerationAndStats:
    def test_find_all_embeddings_count(self):
        # a C-C edge embeds into a C-triangle in 6 ways (3 edges x 2 directions)
        query = path_graph(["C", "C"])
        target = cycle_graph(["C", "C", "C"])
        embeddings = VF2Matcher().find_all_embeddings(query, target)
        assert len(embeddings) == 6

    def test_find_all_respects_limit(self):
        query = path_graph(["C", "C"])
        target = complete_graph(["C"] * 5)
        embeddings = VF2Matcher().find_all_embeddings(query, target, limit=3)
        assert len(embeddings) == 3

    def test_count_embeddings(self):
        query = path_graph(["C", "C"])
        target = cycle_graph(["C", "C", "C"])
        assert VF2Matcher().count_embeddings(query, target) == 6

    def test_a_failed_test_reports_no_mapping(self):
        # the kernel returns only ``found`` and ``mapping``; a miss has none
        result = VF2Matcher().find_embedding(
            cycle_graph(["C", "C", "C"]), cycle_graph(["C", "C", "C", "C"])
        )
        assert not result.found
        assert result.mapping is None

    def test_a_test_that_only_asks_whether_builds_no_mapping(self, monkeypatch):
        import repro.isomorphism.vf2 as vf2

        built = []
        mapping = vf2._mapping
        monkeypatch.setattr(vf2, "_mapping",
                            lambda *args: built.append(args) or mapping(*args))
        query, target = path_graph(["C", "O"]), cycle_graph(["C", "C", "O"])
        assert VF2Matcher().is_subgraph(query, target)
        assert built == []
        # the mapping is built once, when it is first read
        result = VF2Matcher().find_embedding(query, target)
        assert built == []
        verify_mapping(query, target, result.mapping)
        assert result.mapping is result.mapping
        assert len(built) == 1

    def test_budget_enforced(self):
        query = complete_graph(["C"] * 6)
        target = complete_graph(["C"] * 10)
        with pytest.raises(BudgetExceededError):
            VF2Matcher(node_budget=3).find_embedding(query, target)

    def test_no_embeddings_empty_list(self, triangle):
        query = path_graph(["S", "S"])
        assert VF2Matcher().find_all_embeddings(query, triangle) == []
