"""Tests for the synthetic dataset generators."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graph import (
    ATOM_ALPHABET,
    molecule_dataset,
    molecule_graph,
    power_law_graph,
    protein_like_graph,
    random_labelled_graph,
    synthetic_dataset,
)
from tests.oracles import to_networkx


class TestMoleculeGraph:
    def test_connected_and_sized(self):
        graph = molecule_graph(20, rng=3)
        assert graph.num_vertices == 20
        assert nx.is_connected(to_networkx(graph))

    def test_labels_from_atom_alphabet(self):
        graph = molecule_graph(30, rng=4)
        atoms = {label for label, _ in ATOM_ALPHABET}
        assert graph.label_set() <= atoms

    def test_sparse_like_a_molecule(self):
        graph = molecule_graph(40, rng=5)
        assert 2 * graph.num_edges / graph.num_vertices < 4.0  # mean degree

    def test_reproducible_with_seed(self):
        first = molecule_graph(15, rng=99)
        second = molecule_graph(15, rng=99)
        assert first.to_dict() == second.to_dict()

    def test_single_atom(self):
        graph = molecule_graph(1, rng=0)
        assert graph.num_vertices == 1
        assert graph.num_edges == 0

    def test_zero_atoms_rejected(self):
        with pytest.raises(GraphError):
            molecule_graph(0)


class TestMoleculeDataset:
    def test_size_and_ids(self):
        dataset = molecule_dataset(10, min_vertices=5, max_vertices=9, rng=1)
        assert len(dataset) == 10
        assert [graph.graph_id for graph in dataset] == list(range(10))

    def test_vertex_count_bounds(self):
        dataset = molecule_dataset(15, min_vertices=5, max_vertices=9, rng=2)
        assert all(5 <= graph.num_vertices <= 9 for graph in dataset)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(GraphError):
            molecule_dataset(3, min_vertices=10, max_vertices=5)

    def test_negative_count_rejected(self):
        with pytest.raises(GraphError):
            molecule_dataset(-1)

    def test_accepts_shared_rng(self):
        rng = random.Random(7)
        dataset = molecule_dataset(5, rng=rng)
        assert len(dataset) == 5


class TestRandomLabelledGraph:
    def test_connected_by_default(self):
        graph = random_labelled_graph(25, 0.05, rng=3)
        assert nx.is_connected(to_networkx(graph))

    def test_label_alphabet_size(self):
        graph = random_labelled_graph(30, 0.1, num_labels=3, rng=4)
        assert graph.label_set() <= {"L0", "L1", "L2"}

    def test_probability_one_gives_complete_graph(self):
        graph = random_labelled_graph(8, 1.0, rng=5)
        assert graph.num_edges == 8 * 7 // 2

    def test_invalid_probability_rejected(self):
        with pytest.raises(GraphError):
            random_labelled_graph(5, 1.5)

    def test_zero_vertices(self):
        graph = random_labelled_graph(0, 0.5, rng=1)
        assert graph.num_vertices == 0


class TestPowerLawGraph:
    def test_sizes(self):
        graph = power_law_graph(50, edges_per_vertex=2, rng=6)
        assert graph.num_vertices == 50
        assert nx.is_connected(to_networkx(graph))

    def test_hubs_exist(self):
        graph = power_law_graph(120, edges_per_vertex=2, rng=7)
        assert max(graph.degree(vertex) for vertex in graph) >= 6

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            power_law_graph(0)
        with pytest.raises(GraphError):
            power_law_graph(10, edges_per_vertex=0)


class TestProteinLikeGraph:
    def test_backbone_present(self):
        graph = protein_like_graph(30, rng=8)
        assert all(graph.has_edge(i, i + 1) for i in range(29))

    def test_too_small_rejected(self):
        with pytest.raises(GraphError):
            protein_like_graph(1)


class TestSyntheticDataset:
    @pytest.mark.parametrize("kind", ["molecule", "random", "powerlaw", "protein"])
    def test_all_kinds(self, kind):
        dataset = synthetic_dataset(4, kind=kind, rng=9)
        assert len(dataset) == 4
        assert all(graph.num_vertices > 0 for graph in dataset)

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            synthetic_dataset(2, kind="bogus")
