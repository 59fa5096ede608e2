"""Tests for cache entries and the cache store."""

from __future__ import annotations

import pytest

from repro.cache import CacheEntry, CacheStore
from repro.errors import CacheError
from repro.graph import molecule_graph, path_graph
from repro.query_model import QueryType


def make_entry(seed: int = 0, answer=frozenset({1, 2})) -> CacheEntry:
    return CacheEntry(
        graph=molecule_graph(6, rng=seed),
        query_type=QueryType.SUBGRAPH,
        answer=frozenset(answer),
    )


class TestCacheEntry:
    def test_entry_ids_unique(self):
        first, second = make_entry(1), make_entry(2)
        assert first.entry_id != second.entry_id

    def test_construction_analyses_nothing(self):
        # an offered query may be refused by the window: no hash, no features yet
        entry = make_entry(3)
        assert entry.graph._compiled is None and not entry.features

    def test_query_type_parsing(self):
        entry = CacheEntry(
            graph=path_graph(["C", "O"]), query_type="supergraph", answer=frozenset()
        )
        assert entry.query_type is QueryType.SUPERGRAPH

    def test_sizes_exposed(self):
        entry = CacheEntry(graph=path_graph(["C", "O"]), query_type="subgraph", answer=frozenset())
        assert entry.num_vertices == 2
        assert entry.num_edges == 1

    def test_memory_accounts_for_answer_size(self):
        small = CacheEntry(
            graph=path_graph(["C", "O"]), query_type="subgraph", answer=frozenset()
        )
        big = CacheEntry(
            graph=path_graph(["C", "O"]),
            query_type="subgraph",
            answer=frozenset(range(1000)),
        )
        assert big.memory_bytes() > small.memory_bytes()

    def test_stats_snapshot(self):
        entry = make_entry(4)
        entry.stats.hit_count = 3
        entry.stats.tests_saved = 10
        snapshot = entry.stats.snapshot()
        assert snapshot["hit_count"] == 3
        assert snapshot["tests_saved"] == 10


class TestCacheStore:
    def test_add_get_remove(self):
        store = CacheStore()
        entry = make_entry(5)
        store.add(entry)
        assert len(store) == 1
        assert store.entries() == [entry]
        assert entry.entry_id in store
        removed = store.remove(entry.entry_id)
        assert removed is entry
        assert len(store) == 0

    def test_duplicate_add_rejected(self):
        store = CacheStore()
        entry = make_entry(6)
        store.add(entry)
        with pytest.raises(CacheError):
            store.add(entry)

    def test_missing_get_and_remove_raise(self):
        store = CacheStore()
        with pytest.raises(CacheError):
            store.remove(12345)

    def test_iteration_order_is_insertion_order(self):
        store = CacheStore()
        entries = [make_entry(seed) for seed in range(5)]
        for entry in entries:
            store.add(entry)
        assert store.entries() == entries
        assert list(store) == entries

    def test_clear_and_memory(self):
        store = CacheStore()
        empty = store.memory_bytes()
        entry = make_entry(7)
        store.add(entry)
        held = store.memory_bytes()
        assert held > empty
        store.remove(entry.entry_id)  # the entry goes; the index keeps its slot for reuse
        assert len(store) == 0
        assert empty < store.memory_bytes() < held
