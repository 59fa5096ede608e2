"""Tests for the cached-query index (the store's screens) and the sub/super-case probes."""

from __future__ import annotations

import random

import pytest

from repro.cache import CacheEntry, CacheStore, GraphCache
from repro.cache.store import CACHE_FEATURE_LENGTH
from repro.errors import CacheError
from repro.features import path_features
from repro.graph import cycle_graph, molecule_graph, path_graph
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.query_model import Query, QueryType


def entry_for(graph, answer=frozenset()) -> CacheEntry:
    return CacheEntry(graph=graph, query_type=QueryType.SUBGRAPH, answer=frozenset(answer))


@pytest.fixture()
def index() -> CacheStore:
    return CacheStore()


class TestCachedQueryIndex:
    """The store indexes what it holds and screens it for a new query."""

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

    def test_exact_candidates_by_multiset_equality(self, index):
        graph = molecule_graph(8, rng=8)
        cached = entry_for(graph)
        index.add(cached)
        permuted = graph.relabel_vertices(
            {vertex: f"x{i}" for i, vertex in enumerate(graph.vertices())}
        )
        features = path_features(permuted, CACHE_FEATURE_LENGTH)
        assert index.exact_candidates(features, QueryType.SUBGRAPH) == [cached]
        other = path_features(molecule_graph(8, rng=99), CACHE_FEATURE_LENGTH)
        assert index.exact_candidates(other, QueryType.SUBGRAPH) in ([], [cached])
        assert index.exact_candidates(features, QueryType.SUPERGRAPH) == []

    def test_memory_accounting(self, index):
        index.add(entry_for(molecule_graph(8, rng=9)))
        assert index.memory_bytes() > 0


class TestCaseProcessors:
    """The paper's Sub and Super Case Processors: the probe loop that
    :meth:`GraphCache.lookup` runs over the screened candidates.

    A candidate is probed only while its answer can still change the
    pruning, so unless a test says otherwise every entry gets an answer of
    its own (entry ``i`` answers ``{i}``, which no other answer covers) and
    every screened candidate is probed."""

    @staticmethod
    def cache_of(*graphs, answers=None) -> tuple[GraphCache, list[CacheEntry]]:
        cache = GraphCache(capacity=10, policy="LRU")
        answers = answers or [{position} for position in range(len(graphs))]
        entries = [entry_for(graph, answer) for graph, answer in zip(graphs, answers)]
        cache.warm(entries)
        return cache, entries

    def test_sub_case_processor_confirms_real_hits(self):
        rng = random.Random(10)
        big = molecule_graph(14, rng=rng)
        query = random_connected_subgraph(big, 6, rng=rng)
        cache, (big_entry, _) = self.cache_of(big, molecule_graph(14, rng=999))
        assert cache.lookup(Query(query, QueryType.SUBGRAPH)).sub_hits == [big_entry]

        triangle = cycle_graph("CCC")
        container = cycle_graph("CCC")
        container.add_vertex(3, "C")
        container.add_edge(2, 3)
        decoy = path_graph("CCCCC")  # every label path of the triangle, no triangle
        cache, (container_entry, _) = self.cache_of(container, decoy)
        lookup = cache.lookup(Query(triangle, QueryType.SUBGRAPH))
        assert lookup.screened_sub_candidates == 2  # the screen let the decoy through
        assert lookup.sub_hits == [container_entry]
        assert lookup.probe_tests == 2
        assert lookup.probe_seconds >= 0.0

    def test_super_case_processor_confirms_real_hits(self):
        rng = random.Random(11)
        small = molecule_graph(6, rng=rng)
        query = extend_graph(small, 5, labels=["C", "O"], rng=rng)
        cache, entries = self.cache_of(small)
        lookup = cache.lookup(Query(query, QueryType.SUBGRAPH))
        assert lookup.super_hits == entries
        assert lookup.sub_hits == []
        assert lookup.probe_tests == lookup.screened_super_candidates == 1

    def test_sub_processor_orders_smallest_first(self):
        rng = random.Random(13)
        big = molecule_graph(18, rng=rng)
        medium = random_connected_subgraph(big, 12, rng=rng)
        query = random_connected_subgraph(medium, 5, rng=rng)
        cache, (big_entry, medium_entry, twin_entry) = self.cache_of(big, medium, medium.copy())
        lookup = cache.lookup(Query(query, QueryType.SUBGRAPH))
        # ties between equal sizes go to the older entry
        assert lookup.sub_hits == [medium_entry, twin_entry, big_entry]

    def test_super_processor_orders_largest_first(self):
        rng = random.Random(15)
        medium = molecule_graph(10, rng=rng)
        small = random_connected_subgraph(medium, 5, rng=rng)
        query = extend_graph(medium, 4, labels=["C", "N"], rng=rng)
        # prune hits intersect: each answer leaves the intersection so far
        # non-empty and is no superset of it, so each is probed
        cache, (small_entry, medium_entry, twin_entry) = self.cache_of(
            small, medium, small.copy(), answers=[{1, 2, 4}, {1, 2, 3}, {1, 3, 4}])
        lookup = cache.lookup(Query(query, QueryType.SUBGRAPH))
        assert lookup.super_hits == [medium_entry, small_entry, twin_entry]

    def test_a_guarantee_candidate_inside_the_union_is_not_probed(self):
        # subgraph query: containers guarantee, and a bigger container's
        # answers are inside a smaller one's, which is probed first
        rng = random.Random(13)
        big = molecule_graph(18, rng=rng)
        medium = random_connected_subgraph(big, 12, rng=rng)
        query = random_connected_subgraph(medium, 5, rng=rng)
        cache, (big_entry, medium_entry) = self.cache_of(big, medium,
                                                         answers=[{2, 3}, {1, 2, 3}])
        lookup = cache.lookup(Query(query, QueryType.SUBGRAPH))
        assert lookup.screened_sub_candidates == 2
        assert lookup.sub_hits == [medium_entry]
        assert lookup.probe_tests == 1

    def test_a_prune_candidate_containing_the_intersection_is_not_probed(self):
        # subgraph query: contained queries prune, and a smaller one's
        # answers contain a larger one's, which is probed first
        rng = random.Random(15)
        medium = molecule_graph(10, rng=rng)
        small = random_connected_subgraph(medium, 5, rng=rng)
        query = extend_graph(medium, 4, labels=["C", "N"], rng=rng)
        cache, (small_entry, medium_entry) = self.cache_of(small, medium,
                                                           answers=[{1, 2, 3}, {1, 2}])
        lookup = cache.lookup(Query(query, QueryType.SUBGRAPH))
        assert lookup.screened_super_candidates == 2
        assert lookup.super_hits == [medium_entry]
        assert lookup.probe_tests == 1

    def test_a_supergraph_query_swaps_the_roles(self):
        # supergraph query: containers prune, contained queries guarantee
        paths = {length: path_graph("C" * length) for length in (2, 3, 5, 6)}
        answers = {5: {1, 2}, 6: {1, 2, 3}, 3: {4, 5}, 2: {5}}
        entries = {length: CacheEntry(graph=graph, query_type=QueryType.SUPERGRAPH,
                                      answer=frozenset(answers[length]))
                   for length, graph in paths.items()}
        cache = GraphCache(capacity=10, policy="LRU")
        cache.warm(list(entries.values()))
        lookup = cache.lookup(Query(path_graph("CCCC"), QueryType.SUPERGRAPH))
        assert lookup.screened_sub_candidates == lookup.screened_super_candidates == 2
        # the 5-path is probed first; the 6-path's answers contain what it allows
        assert lookup.sub_hits == [entries[5]]
        # the 3-path is probed first; the 2-path's answers are inside its own
        assert lookup.super_hits == [entries[3]]
        assert lookup.probe_tests == 2

    def test_no_candidates_no_probes(self):
        cache, _ = self.cache_of(molecule_graph(8, rng=14))
        # a cached subgraph query says nothing about a supergraph query
        lookup = cache.lookup(Query(molecule_graph(5, rng=14), QueryType.SUPERGRAPH))
        assert lookup.screened_sub_candidates == lookup.screened_super_candidates == 0
        assert lookup.sub_hits == lookup.super_hits == []
        assert lookup.probe_tests == 0
