"""Tests for graph operations (connected subgraph extraction and extension)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graph import Graph, molecule_graph
from repro.graph.operations import extend_graph, random_connected_subgraph, shrink_graph
from repro.isomorphism import VF2Matcher
from tests.oracles import to_networkx


class TestRandomConnectedSubgraph:
    def test_requested_size(self):
        source = molecule_graph(20, rng=1)
        sub = random_connected_subgraph(source, 7, rng=2)
        assert sub.num_vertices == 7

    def test_result_is_connected_when_source_connected(self):
        source = molecule_graph(25, rng=3)
        sub = random_connected_subgraph(source, 10, rng=4)
        assert nx.is_connected(to_networkx(sub))

    def test_result_is_subgraph_of_source(self):
        source = molecule_graph(18, rng=5)
        sub = random_connected_subgraph(source, 6, rng=6)
        assert VF2Matcher().is_subgraph(sub, source)

    def test_relabelled_to_dense_ids(self):
        source = molecule_graph(15, rng=7)
        sub = random_connected_subgraph(source, 5, rng=8)
        assert set(sub.vertices()) == set(range(5))

    def test_without_relabel_keeps_source_ids(self):
        source = molecule_graph(15, rng=9)
        sub = random_connected_subgraph(source, 5, rng=10, relabel=False)
        assert set(sub.vertices()) <= set(source.vertices())

    def test_too_large_request_rejected(self):
        source = molecule_graph(5, rng=11)
        with pytest.raises(GraphError):
            random_connected_subgraph(source, 6)

    def test_zero_request_rejected(self):
        source = molecule_graph(5, rng=12)
        with pytest.raises(GraphError):
            random_connected_subgraph(source, 0)

    def test_full_size_extraction(self):
        source = molecule_graph(8, rng=13)
        sub = random_connected_subgraph(source, 8, rng=14)
        assert sub.num_vertices == 8
        assert sub.num_edges == source.num_edges

    def test_handles_disconnected_source(self):
        graph = Graph()
        for vertex, label in enumerate(["C", "C", "O", "O"]):
            graph.add_vertex(vertex, label)
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        sub = random_connected_subgraph(graph, 4, rng=15)
        assert sub.num_vertices == 4


class TestShrinkAndExtend:
    def test_shrink_produces_subgraph(self):
        source = molecule_graph(16, rng=20)
        smaller = shrink_graph(source, 9, rng=21)
        assert smaller.num_vertices == 9
        assert VF2Matcher().is_subgraph(smaller, source)

    def test_extend_produces_supergraph(self):
        base = molecule_graph(10, rng=22)
        bigger = extend_graph(base, 4, labels=["C", "N"], rng=23)
        assert bigger.num_vertices == 14
        assert VF2Matcher().is_subgraph(base, bigger)

    def test_extend_zero_vertices_is_copy(self):
        base = molecule_graph(10, rng=24)
        same = extend_graph(base, 0, labels=["C"], rng=25)
        assert same.num_vertices == base.num_vertices
        assert same.num_edges == base.num_edges

    def test_extend_requires_labels(self):
        base = molecule_graph(5, rng=26)
        with pytest.raises(GraphError):
            extend_graph(base, 2, labels=[], rng=27)

    def test_extend_negative_rejected(self):
        base = molecule_graph(5, rng=28)
        with pytest.raises(GraphError):
            extend_graph(base, -1, labels=["C"])

    def test_extend_stays_connected(self):
        base = molecule_graph(12, rng=29)
        bigger = extend_graph(base, 5, labels=["C", "O"], rng=30)
        assert nx.is_connected(to_networkx(bigger))
