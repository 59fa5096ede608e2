"""Tests for the dataset filter (exact path multisets and hashed positions)."""

from __future__ import annotations

import random

import pytest

from repro.errors import IndexError_
from repro.features import HashedFeatureExtractor, PathFeatureExtractor
from repro.graph import molecule_dataset
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.index import DatasetIndex
from repro.isomorphism import VF2Matcher
from repro.query_model import QueryType


def hashed_index(num_bits: int) -> DatasetIndex:
    return DatasetIndex(HashedFeatureExtractor(PathFeatureExtractor(2), num_bits=num_bits))


def make_index(kind: str) -> DatasetIndex:
    if kind == "paths-2":
        return DatasetIndex(PathFeatureExtractor(max_length=2))
    if kind == "paths-3":
        return DatasetIndex(PathFeatureExtractor(max_length=3))
    return hashed_index(512)


def true_subgraph_answer(dataset, query):
    matcher = VF2Matcher()
    return {g.graph_id for g in dataset if matcher.is_subgraph(query, g)}


def true_supergraph_answer(dataset, query):
    matcher = VF2Matcher()
    return {g.graph_id for g in dataset if matcher.is_subgraph(g, query)}


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(20, min_vertices=8, max_vertices=16, rng=17)


@pytest.mark.parametrize("kind", ["paths-2", "paths-3", "hashed"])
class TestSoundness:
    def test_subgraph_candidates_contain_answer(self, dataset, kind):
        rng = random.Random(3)
        index = make_index(kind)
        index.build(dataset)
        for _ in range(5):
            source = dataset[rng.randrange(len(dataset))]
            query = random_connected_subgraph(source, 6, rng=rng)
            candidates = index.candidates(query, QueryType.SUBGRAPH)
            answer = true_subgraph_answer(dataset, query)
            assert answer <= candidates
            assert source.graph_id in candidates

    def test_supergraph_candidates_contain_answer(self, dataset, kind):
        rng = random.Random(4)
        index = make_index(kind)
        index.build(dataset)
        labels = sorted({label for g in dataset for label in g.label_set()})
        for _ in range(3):
            source = dataset[rng.randrange(len(dataset))]
            query = extend_graph(source, 4, labels=labels, rng=rng)
            candidates = index.candidates(query, QueryType.SUPERGRAPH)
            answer = true_supergraph_answer(dataset, query)
            assert answer <= candidates
            assert source.graph_id in candidates

    def test_requires_build_before_query(self, dataset, kind):
        index = make_index(kind)
        with pytest.raises(IndexError_):
            index.candidates(dataset[0], QueryType.SUBGRAPH)

    def test_double_build_rejected(self, dataset, kind):
        index = make_index(kind)
        index.build(dataset)
        with pytest.raises(IndexError_):
            index.build(dataset)

    def test_duplicate_graph_ids_rejected(self, dataset, kind):
        index = make_index(kind)
        with pytest.raises(IndexError_):
            index.build([dataset[0], dataset[0]])

    def test_graph_ids_and_memory(self, dataset, kind):
        index = make_index(kind)
        index.build(dataset)
        assert index.graph_ids() == [g.graph_id for g in dataset]
        assert index.memory_bytes() > 0
        assert index.describe()["name"] == index.name

    def test_query_type_accepts_strings(self, dataset, kind):
        index = make_index(kind)
        index.build(dataset)
        query = random_connected_subgraph(dataset[0], 5, rng=9)
        assert index.candidates(query, "subgraph") == index.candidates(
            query, QueryType.SUBGRAPH
        )


class TestExactFeatureSpecifics:
    def test_filtering_actually_prunes(self, dataset):
        index = DatasetIndex(PathFeatureExtractor(max_length=3))
        index.build(dataset)
        rng = random.Random(5)
        query = random_connected_subgraph(dataset[3], 8, rng=rng)
        candidates = index.candidates(query, QueryType.SUBGRAPH)
        assert len(candidates) < len(dataset)

    def test_impossible_query_gives_empty_candidates(self, dataset):
        from repro.graph import path_graph

        query = path_graph(["Zz", "Zz"])
        index = DatasetIndex(PathFeatureExtractor(max_length=2))
        index.build(dataset)
        assert index.candidates(query, QueryType.SUBGRAPH) == set()

    def test_describe_counts_graphs_and_features(self, dataset):
        index = DatasetIndex(PathFeatureExtractor(max_length=2))
        index.build(dataset)
        description = index.describe()
        assert description["num_graphs"] == len(dataset)
        assert description["num_features"] > 0
        assert description["extractor"]["name"] == "paths"

    def test_longer_paths_measure_a_bigger_index(self, dataset):
        short, long = make_index("paths-2"), make_index("paths-3")
        short.build(dataset)
        long.build(dataset)
        assert long.memory_bytes() > short.memory_bytes()


class TestHashedFeatureSpecifics:
    def test_larger_feature_space_weaker_or_equal_filtering(self, dataset):
        # fewer bits => more collisions => never smaller candidate sets
        small, large = hashed_index(64), hashed_index(4096)
        small.build(dataset)
        large.build(dataset)
        rng = random.Random(7)
        query = random_connected_subgraph(dataset[1], 7, rng=rng)
        assert large.candidates(query, QueryType.SUBGRAPH) <= small.candidates(
            query, QueryType.SUBGRAPH
        )

    def test_measured_memory_grows_with_distinct_positions(self, dataset):
        small, large = hashed_index(16), hashed_index(2048)
        small.build(dataset)
        large.build(dataset)
        assert large.describe()["num_features"] > small.describe()["num_features"]
        assert large.memory_bytes() > small.memory_bytes()

    def test_invalid_bits(self):
        with pytest.raises(IndexError_):
            hashed_index(0)
