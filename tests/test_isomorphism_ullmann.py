"""Unit tests for the Ullmann oracle (and its agreement with VF2)."""

from __future__ import annotations

import pytest

from repro.errors import BudgetExceededError
from repro.graph import Graph, complete_graph, cycle_graph, molecule_graph, path_graph
from repro.graph.operations import random_connected_subgraph
from repro.isomorphism import VF2Matcher
from tests.oracles import UllmannMatcher


class TestBasicMatching:
    def test_path_in_triangle(self, triangle):
        assert UllmannMatcher().is_subgraph(path_graph(["C", "O"]), triangle)

    def test_missing_label_rejected(self, triangle):
        assert not UllmannMatcher().is_subgraph(path_graph(["C", "S"]), triangle)

    def test_empty_query(self, triangle):
        result = UllmannMatcher().find_embedding(Graph(), triangle)
        assert result.found and result.mapping == {}

    def test_non_induced_semantics(self):
        path = path_graph(["C", "C", "C"])
        triangle = cycle_graph(["C", "C", "C"])
        assert UllmannMatcher().is_subgraph(path, triangle)

    def test_refinement_prunes_impossible(self):
        # star with 3 leaves cannot embed into a path
        star = Graph()
        star.add_vertex(0, "C")
        for leaf in range(1, 4):
            star.add_vertex(leaf, "C")
            star.add_edge(0, leaf)
        target = path_graph(["C"] * 5)
        assert not UllmannMatcher().is_subgraph(star, target)

    def test_mapping_valid(self, square_with_tail):
        query = path_graph(["C", "N", "O"])
        result = UllmannMatcher().find_embedding(query, square_with_tail)
        assert result.found
        mapping = result.mapping
        assert len(set(mapping.values())) == query.num_vertices
        for u, v in query.edges():
            assert square_with_tail.has_edge(mapping[u], mapping[v])

    def test_edge_labels_respected(self):
        target = Graph()
        target.add_vertices([(0, "C"), (1, "C")])
        target.add_edge(0, 1, "single")
        query = Graph()
        query.add_vertices([(0, "C"), (1, "C")])
        query.add_edge(0, 1, "double")
        assert not UllmannMatcher().is_subgraph(query, target)

    def test_budget_enforced(self):
        query = complete_graph(["C"] * 6)
        target = complete_graph(["C"] * 10)
        with pytest.raises(BudgetExceededError):
            UllmannMatcher(node_budget=3).find_embedding(query, target)


class TestEnumeration:
    def test_edge_in_triangle(self):
        embeddings = UllmannMatcher().find_all_embeddings(
            path_graph(["C", "C"]), cycle_graph(["C", "C", "C"])
        )
        assert len(embeddings) == 6

    def test_limit(self):
        embeddings = UllmannMatcher().find_all_embeddings(
            path_graph(["C", "C"]), complete_graph(["C"] * 5), limit=4
        )
        assert len(embeddings) == 4


class TestAgreementWithVF2:
    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_on_extracted_queries(self, seed):
        target = molecule_graph(14, rng=seed)
        query = random_connected_subgraph(target, 6, rng=seed + 100)
        assert UllmannMatcher().is_subgraph(query, target)
        assert VF2Matcher().is_subgraph(query, target)

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_on_unrelated_graphs(self, seed):
        query = molecule_graph(7, rng=seed)
        target = molecule_graph(15, rng=seed + 50)
        assert UllmannMatcher().is_subgraph(query, target) == VF2Matcher().is_subgraph(
            query, target
        )
