"""Tests for the cached-query index and the sub/super case processors."""

from __future__ import annotations

import random

import pytest

from repro.cache import CacheEntry, CachedQueryIndex, SubCaseProcessor, SuperCaseProcessor
from repro.errors import CacheError
from repro.cache.query_index import CACHE_FEATURE_LENGTH
from repro.features import path_features
from repro.graph import molecule_graph
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.isomorphism import VF2Matcher
from repro.query_model import QueryType


def entry_for(graph, answer=frozenset()) -> CacheEntry:
    return CacheEntry(graph=graph, query_type=QueryType.SUBGRAPH, answer=frozenset(answer))


@pytest.fixture()
def index() -> CachedQueryIndex:
    return CachedQueryIndex()


class TestCachedQueryIndex:
    def test_add_remove_and_len(self, index):
        entry = entry_for(molecule_graph(6, rng=1))
        index.add(entry)
        assert len(index) == 1
        assert entry.entry_id in index
        index.remove(entry.entry_id)
        assert len(index) == 0

    def test_duplicate_add_rejected(self, index):
        entry = entry_for(molecule_graph(6, rng=2))
        index.add(entry)
        with pytest.raises(CacheError):
            index.add(entry)

    def test_remove_missing_rejected(self, index):
        with pytest.raises(CacheError):
            index.remove(424242)

    def test_features_computed_on_add(self, index):
        entry = entry_for(molecule_graph(6, rng=3))
        assert not entry.features
        index.add(entry)
        assert entry.features

    def test_sub_case_screening_keeps_true_container(self, index):
        rng = random.Random(4)
        big = molecule_graph(14, rng=rng)
        cached = entry_for(big)
        index.add(cached)
        query = random_connected_subgraph(big, 6, rng=rng)
        features = path_features(query, CACHE_FEATURE_LENGTH)
        candidates = index.sub_case_candidates(query, features, QueryType.SUBGRAPH)
        assert cached in candidates

    def test_super_case_screening_keeps_true_contained(self, index):
        rng = random.Random(5)
        small = molecule_graph(7, rng=rng)
        cached = entry_for(small)
        index.add(cached)
        query = extend_graph(small, 4, labels=["C", "N", "O"], rng=rng)
        features = path_features(query, CACHE_FEATURE_LENGTH)
        candidates = index.super_case_candidates(query, features, QueryType.SUBGRAPH)
        assert cached in candidates

    def test_size_screen_excludes_impossible_directions(self, index):
        small = entry_for(molecule_graph(4, rng=6))
        index.add(small)
        query = molecule_graph(10, rng=7)
        features = path_features(query, CACHE_FEATURE_LENGTH)
        # a 4-vertex cached query cannot contain a 10-vertex query
        assert small not in index.sub_case_candidates(query, features, QueryType.SUBGRAPH)

    def test_exact_candidates_by_hash(self, index):
        graph = molecule_graph(8, rng=8)
        cached = entry_for(graph)
        index.add(cached)
        permuted = graph.relabel_vertices(
            {vertex: f"x{i}" for i, vertex in enumerate(graph.vertices())}
        )
        assert cached in index.exact_candidates(permuted, QueryType.SUBGRAPH)
        other = index.exact_candidates(molecule_graph(8, rng=99), QueryType.SUBGRAPH)
        assert other in ([], [cached])
        assert index.exact_candidates(permuted, QueryType.SUPERGRAPH) == []

    def test_memory_accounting(self, index):
        index.add(entry_for(molecule_graph(8, rng=9)))
        assert index.memory_bytes() > 0


class TestCaseProcessors:
    def test_sub_case_processor_confirms_real_hits(self):
        rng = random.Random(10)
        big = molecule_graph(14, rng=rng)
        unrelated = molecule_graph(14, rng=999)
        query = random_connected_subgraph(big, 6, rng=rng)
        processor = SubCaseProcessor(VF2Matcher())
        outcome = processor.find_hits(query, [entry_for(big), entry_for(unrelated)])
        hit_graphs = [entry.graph for entry in outcome.hits]
        assert big in hit_graphs
        assert outcome.probe_tests == 2
        assert outcome.probe_seconds >= 0.0

    def test_super_case_processor_confirms_real_hits(self):
        rng = random.Random(11)
        small = molecule_graph(6, rng=rng)
        query = extend_graph(small, 5, labels=["C", "O"], rng=rng)
        processor = SuperCaseProcessor(VF2Matcher())
        outcome = processor.find_hits(query, [entry_for(small)])
        assert len(outcome.hits) == 1

    def test_max_hits_caps_probing(self):
        rng = random.Random(12)
        big = molecule_graph(16, rng=rng)
        query = random_connected_subgraph(big, 5, rng=rng)
        candidates = [entry_for(big) for _ in range(4)]
        processor = SubCaseProcessor(VF2Matcher(), max_hits=2)
        outcome = processor.find_hits(query, candidates)
        assert len(outcome.hits) == 2

    def test_sub_processor_orders_smallest_first(self):
        rng = random.Random(13)
        big = molecule_graph(18, rng=rng)
        medium = random_connected_subgraph(big, 12, rng=rng)
        query = random_connected_subgraph(medium, 5, rng=rng)
        processor = SubCaseProcessor(VF2Matcher(), max_hits=1)
        outcome = processor.find_hits(query, [entry_for(big), entry_for(medium)])
        assert len(outcome.hits) == 1
        assert outcome.hits[0].graph.num_vertices == medium.num_vertices

    def test_no_candidates_no_probes(self):
        processor = SubCaseProcessor(VF2Matcher())
        outcome = processor.find_hits(molecule_graph(5, rng=14), [])
        assert outcome.hits == []
        assert outcome.probe_tests == 0
