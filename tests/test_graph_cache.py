"""Tests for the GraphCache kernel (lookup, credit, offer, replacement)."""

from __future__ import annotations

import random

import pytest

from repro.cache import CacheEntry, GraphCache
from repro.errors import CacheCapacityError
from repro.graph import molecule_dataset, molecule_graph
from repro.graph.operations import extend_graph, random_connected_subgraph
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem


def subgraph_query(graph) -> Query:
    return Query(graph=graph, query_type=QueryType.SUBGRAPH)


def cached_entry(graph, answer, clock=0) -> CacheEntry:
    return CacheEntry(
        graph=graph,
        query_type=QueryType.SUBGRAPH,
        answer=frozenset(answer),
        admitted_clock=clock,
    )


@pytest.fixture()
def warm_cache():
    """A cache warmed with one big and one small cached query."""
    rng = random.Random(7)
    big = molecule_graph(16, rng=rng)
    small = random_connected_subgraph(big, 5, rng=rng)
    cache = GraphCache(capacity=10, policy="LRU", window_size=2)
    big_entry = cached_entry(big, {1, 2, 3})
    small_entry = cached_entry(small, {1, 2, 3, 4, 5})
    cache.warm([big_entry, small_entry])
    return cache, big, small, big_entry, small_entry


class TestConstruction:
    def test_invalid_capacity(self):
        with pytest.raises(CacheCapacityError):
            GraphCache(capacity=0)

    def test_policy_by_name_or_instance(self):
        from repro.cache import HDPolicy

        assert GraphCache(policy="PIN").policy.name == "PIN"
        assert GraphCache(policy=HDPolicy()).policy.name == "HD"

    def test_describe(self):
        cache = GraphCache(capacity=5, policy="POP", window_size=2)
        description = cache.describe()
        assert description["capacity"] == 5
        assert description["policy"] == "POP"
        assert description["population"] == 0


class TestLookup:
    def test_empty_cache_no_hits(self):
        cache = GraphCache(capacity=5)
        lookup = cache.lookup(subgraph_query(molecule_graph(6, rng=1)))
        assert lookup.exact_entry is None and lookup.sub_hits == lookup.super_hits == []

    def test_sub_case_hit_detected(self, warm_cache):
        cache, big, _small, big_entry, _ = warm_cache
        query = subgraph_query(random_connected_subgraph(big, 6, rng=3))
        lookup = cache.lookup(query)
        assert big_entry in lookup.sub_hits

    def test_super_case_hit_detected(self, warm_cache):
        cache, _big, small, _, small_entry = warm_cache
        bigger = extend_graph(small, 4, labels=["C", "N", "O"], rng=5)
        lookup = cache.lookup(subgraph_query(bigger))
        assert small_entry in lookup.super_hits

    def test_exact_hit_detected(self, warm_cache):
        cache, big, _small, big_entry, _ = warm_cache
        permuted = big.relabel_vertices(
            {vertex: f"v{i}" for i, vertex in enumerate(reversed(big.vertices()))}
        )
        lookup = cache.lookup(subgraph_query(permuted))
        assert lookup.exact_entry is big_entry

    def test_probe_costs_accounted(self, warm_cache):
        cache, big, _small, _, _ = warm_cache
        query = subgraph_query(random_connected_subgraph(big, 6, rng=6))
        lookup = cache.lookup(query)
        assert lookup.probe_tests >= len(lookup.sub_hits) + len(lookup.super_hits)
        assert lookup.probe_seconds >= 0.0

    def test_different_query_type_not_matched(self, warm_cache):
        cache, big, _small, _, _ = warm_cache
        query = Query(
            graph=random_connected_subgraph(big, 6, rng=7), query_type=QueryType.SUPERGRAPH
        )
        lookup = cache.lookup(query)
        assert lookup.exact_entry is None and lookup.sub_hits == lookup.super_hits == []

    def test_clock_ticks(self):
        cache = GraphCache(capacity=3)
        assert cache.clock == 0
        cache.tick()
        cache.tick()
        assert cache.clock == 2


class TestCredit:
    def test_credit_updates_entry_statistics(self, warm_cache):
        cache, big, _small, big_entry, _ = warm_cache
        query = subgraph_query(random_connected_subgraph(big, 6, rng=8))
        cache.tick()
        lookup = cache.lookup(query)
        assert big_entry in lookup.sub_hits
        cache.credit(lookup, {big_entry.entry_id: 7}, average_test_seconds=0.01)
        assert big_entry.stats.tests_saved == 7
        assert big_entry.stats.seconds_saved == pytest.approx(0.07)
        assert big_entry.stats.sub_hits == 1

    def test_credit_exact_hit(self, warm_cache):
        cache, big, _small, big_entry, _ = warm_cache
        lookup = cache.lookup(subgraph_query(big.copy()))
        assert lookup.exact_entry is big_entry
        cache.credit(lookup, {big_entry.entry_id: 20}, average_test_seconds=0.0)
        assert big_entry.stats.exact_hits == 1
        assert big_entry.stats.tests_saved == 20


class TestOfferAndReplacement:
    def test_window_batches_admissions(self):
        cache = GraphCache(capacity=10, window_size=3)
        for seed in range(2):
            report = cache.offer(
                subgraph_query(molecule_graph(6, rng=seed)),
                answer={seed},
                observed_test_cost=0.001,
            )
            assert report is None
        report = cache.offer(
            subgraph_query(molecule_graph(6, rng=99)),
            answer={99},
            observed_test_cost=0.001,
        )
        assert report is not None
        assert len(cache) == 3

    def test_capacity_never_exceeded(self):
        cache = GraphCache(capacity=4, window_size=2, policy="LRU")
        for seed in range(12):
            cache.tick()
            cache.offer(
                subgraph_query(molecule_graph(6, rng=seed)),
                answer={seed},
                observed_test_cost=0.001,
            )
        assert len(cache) <= 4

    def test_flush_window_forces_admission(self):
        cache = GraphCache(capacity=10, window_size=5)
        cache.offer(
            subgraph_query(molecule_graph(6, rng=1)),
            answer=set(),
            observed_test_cost=0.0,
        )
        assert len(cache) == 0
        report = cache.flush_window()
        assert report is not None
        assert len(cache) == 1
        assert cache.flush_window() is None

    def test_evicted_entries_leave_query_index(self):
        cache = GraphCache(capacity=2, window_size=1, policy="LRU")
        for seed in range(5):
            cache.tick()
            cache.offer(
                subgraph_query(molecule_graph(6, rng=seed)),
                answer=set(),
                observed_test_cost=0.0,
            )
        assert len(cache) <= 2
        store = cache.store
        assert store._index.members() == [entry.entry_id for entry in store.entries()]
        reports = cache.eviction_reports()
        assert any(report.evicted for report in reports)

    def test_warm_respects_capacity(self):
        cache = GraphCache(capacity=2)
        entries = [cached_entry(molecule_graph(5, rng=seed), set()) for seed in range(5)]
        cache.warm(entries)
        assert len(cache) == 2

    def test_memory_accounting(self, warm_cache):
        cache, *_ = warm_cache
        assert cache.memory_bytes() > 0


class TestEditedGraph:
    def test_editing_a_queried_graph_breaks_no_later_query(self):
        """The cache keeps a submitted graph by reference, so an edit after
        the query reaches a resident entry; evicting it must still work, by
        id, without re-deriving anything from the edited graph."""
        dataset = molecule_dataset(20, rng=3)
        rng = random.Random(5)
        edited = random_connected_subgraph(dataset[0], 6, rng=rng)
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=4, window_size=1)) as system:
            system.run_query(edited)
            edited.add_vertex("extra", "C")
            edited.add_edge("extra", edited.vertices()[0])
            failures = []
            for position in range(40):
                query = random_connected_subgraph(dataset[position % 20], 5, rng=rng)
                try:
                    system.run_query(query)
                except Exception as error:  # noqa: BLE001 - every failure is the finding
                    failures.append(error)
            assert failures == []
            store = system.cache.store
            assert store._index.members() == [entry.entry_id for entry in store.entries()]
