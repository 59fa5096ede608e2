"""The engine's locks: the cache's one mutex, the statistics lock, and a cache
hammered by concurrent callers.

A query runs start to finish on the thread that submitted it, admission and
replacement included; these locks are what keep concurrent library callers
and a server's handler threads safe on one shared engine.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cache import StatisticsManager
from repro.graph import molecule_dataset
from repro.runtime import GCConfig, GraphCacheSystem
from tests.conftest import make_subgraph_queries
from tests.differential import run_on_threads


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(14, min_vertices=7, max_vertices=12, rng=23)


class TestConcurrentCallers:
    def test_hammer_concurrent_queries(self, dataset):
        """Eight callers querying while each admits and replaces on its own
        thread must not corrupt state."""
        queries = make_subgraph_queries(dataset, 48, 6, seed=5)
        with GraphCacheSystem(dataset, GCConfig(window_size=3, cache_capacity=9)) as system:
            reports = run_on_threads(system, queries, threads=8)
            assert len(reports) == 48
            assert all(report.answer is not None for report in reports)
            # cache invariants: population within capacity, index consistent
            assert len(system.cache) <= system.cache.capacity
            store = system.cache.store
            assert store._index.members() == [entry.entry_id for entry in store.entries()]

    def test_hammer_closes_a_round_per_query(self, dataset):
        """With a one-query window every caller closes a replacement round
        while the others look up; each round's net change reaches the store."""
        queries = make_subgraph_queries(dataset, 96, 6, seed=11)
        with GraphCacheSystem(dataset, GCConfig(window_size=1, cache_capacity=4)) as system:
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # switch often: rounds interleave with lookups
            try:
                reports = run_on_threads(system, queries, threads=8)
            finally:
                sys.setswitchinterval(interval)
            assert all(report.answer is not None for report in reports)
            cache, store = system.cache, system.cache.store
            assert len(cache) <= cache.capacity
            assert store._index.members() == [entry.entry_id for entry in store.entries()]
            rounds = cache.eviction_reports()
            assert any(report.evicted for report in rounds)
            assert sum(report.num_admitted - report.num_evicted for report in rounds) \
                == len(cache)


class TestStatisticsManager:
    def test_empty_manager_is_truthy(self):
        manager = StatisticsManager()
        assert bool(manager) is True
        assert manager.aggregate().num_queries == 0

    def test_concurrent_records(self):
        from repro.graph import path_graph
        from repro.query_model import Query
        from repro.runtime.report import QueryReport

        manager = StatisticsManager()
        query = Query(graph=path_graph(["C", "O"]))
        start = threading.Barrier(8)

        def record_many(base: int):
            start.wait(timeout=10)
            for offset in range(100):
                manager.record(QueryReport(
                    query=query, dataset_tests=base + offset, sub_hit_entries=[1],
                    stage_seconds={"filter": 1.0, "verify": 2.0},
                ))

        threads = [threading.Thread(target=record_many, args=(i * 1000,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often: a lost update shows in the sums
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        aggregate = manager.aggregate()
        assert aggregate.num_queries == 800
        assert aggregate.num_hits == aggregate.num_sub_hits == 800
        assert aggregate.total_dataset_tests == sum(
            i * 1000 + offset for i in range(8) for offset in range(100))
        assert [(row["stage"], row["total_seconds"]) for row in manager.stage_breakdown()] \
            == [("filter", 800.0), ("verify", 1600.0)]
