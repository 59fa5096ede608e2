"""Tests for the concurrency substrate: RW lock, maintenance worker,
and the thread-safe cache/statistics."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cache import CacheMaintenanceWorker, StatisticsManager
from repro.cache.locks import ReadWriteLock
from repro.graph import molecule_dataset
from repro.runtime import GCConfig, GraphCacheSystem
from tests.conftest import make_subgraph_queries
from tests.differential import run_on_threads


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # only passes if all 3 readers are in together

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order: list[str] = []
        writer_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                time.sleep(0.05)
                order.append("writer")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read_locked():
                order.append("reader")

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert order == ["writer", "reader"]

    def test_write_lock_is_exclusive(self):
        lock = ReadWriteLock()
        counter = {"value": 0}

        def bump():
            for _ in range(200):
                with lock.write_locked():
                    current = counter["value"]
                    counter["value"] = current + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert counter["value"] == 800


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(14, min_vertices=7, max_vertices=12, rng=23)


class TestAsyncMaintenance:
    def test_async_admissions_converge_to_sync_population(self, dataset):
        queries = make_subgraph_queries(dataset, 20, 6, seed=2)

        sync_system = GraphCacheSystem(dataset, GCConfig(window_size=4, cache_capacity=10))
        sync_system.run_queries([q.graph.copy() for q in queries])

        async_config = GCConfig(window_size=4, cache_capacity=10, async_maintenance=True)
        with GraphCacheSystem(dataset, async_config) as async_system:
            async_system.run_queries([q.graph.copy() for q in queries])
            async_system.cache.drain_maintenance()
            # same sequential order + drained queue => identical population
            sync_graphs = sorted(
                (e.graph.num_vertices, e.graph.num_edges) for e in sync_system.cache.entries()
            )
            async_graphs = sorted(
                (e.graph.num_vertices, e.graph.num_edges) for e in async_system.cache.entries()
            )
            assert async_graphs == sync_graphs
            stats = async_system.cache.maintenance.stats()
            assert stats.processed == stats.submitted > 0

    def test_offer_returns_none_in_async_mode(self, dataset):
        with GraphCacheSystem(
            dataset, GCConfig(window_size=1, cache_capacity=5, async_maintenance=True)
        ) as system:
            query = make_subgraph_queries(dataset, 1, 6, seed=3)[0]
            report = system.run_query(query)
            system.cache.drain_maintenance()
            assert report.answer is not None
            assert len(system.cache) >= 1  # window_size=1 admits immediately

    def test_flush_window_drains_first(self, dataset):
        with GraphCacheSystem(
            dataset, GCConfig(window_size=50, cache_capacity=50, async_maintenance=True)
        ) as system:
            for query in make_subgraph_queries(dataset, 5, 6, seed=4):
                system.run_query(query)
            system.cache.flush_window()
            assert len(system.cache) == 5

    def test_close_is_idempotent(self, dataset):
        system = GraphCacheSystem(
            dataset, GCConfig(window_size=1, cache_capacity=5, async_maintenance=True)
        )
        cache = system.cache
        worker = cache.maintenance
        system.close()
        assert not worker.alive
        system.close()  # second close is a no-op

        # a submit racing close() is applied synchronously, never lost
        from repro.cache import CacheEntry
        from repro.query_model import QueryType

        entry = CacheEntry(
            graph=dataset[0].copy(), query_type=QueryType.SUBGRAPH,
            answer=frozenset(), admitted_clock=0, observed_test_cost=0.0,
        )
        before = len(cache)
        worker.submit(entry, tests_performed=1)
        assert len(cache) == before + 1  # window_size=1 admits immediately

    def test_worker_survives_admission_errors(self):
        class FlakyCache:
            def __init__(self):
                self.applied = []

            def apply_offer(self, entry, tests_performed):
                if entry == "boom":
                    raise ValueError("kaboom")
                self.applied.append(entry)

        cache = FlakyCache()
        worker = CacheMaintenanceWorker(cache)
        worker.submit("boom", 1)
        worker.submit("ok", 1)
        worker.drain()  # must not hang even though one offer raised
        stats = worker.stats()
        assert stats.errors == 1
        assert "kaboom" in stats.last_error
        assert stats.processed == 2
        assert cache.applied == ["ok"]
        assert worker.alive
        worker.stop()

    def test_describe_reports_async_flag(self, dataset):
        with GraphCacheSystem(
            dataset, GCConfig(window_size=2, cache_capacity=5, async_maintenance=True)
        ) as system:
            assert system.cache.describe()["async_maintenance"] is True
        sync_system = GraphCacheSystem(dataset, GCConfig(window_size=2, cache_capacity=5))
        assert sync_system.cache.describe()["async_maintenance"] is False

    def test_hammer_concurrent_queries_async_maintenance(self, dataset):
        """Many threads querying while maintenance admits must not corrupt state."""
        queries = make_subgraph_queries(dataset, 48, 6, seed=5)
        with GraphCacheSystem(
            dataset,
            GCConfig(window_size=3, cache_capacity=9, async_maintenance=True),
        ) as system:
            reports = run_on_threads(system, queries, threads=8)
            assert len(reports) == 48
            assert all(report.answer is not None for report in reports)
            # cache invariants: population within capacity, index consistent
            assert len(system.cache) <= system.cache.capacity
            resident = set(system.cache.store.entry_ids())
            indexed = {entry.entry_id for entry in system.cache.query_index.entries()}
            assert indexed == resident


class TestStatisticsManager:
    def test_empty_manager_is_truthy(self):
        manager = StatisticsManager()
        assert bool(manager) is True
        assert len(manager) == 0

    def test_concurrent_records(self):
        from repro.cache.statistics import QueryRecord
        from repro.query_model import QueryType

        manager = StatisticsManager()

        def record_many(base: int):
            for offset in range(100):
                manager.record(
                    QueryRecord(query_id=base + offset, query_type=QueryType.SUBGRAPH)
                )

        threads = [threading.Thread(target=record_many, args=(i * 1000,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(manager) == 400
        assert manager.aggregate().num_queries == 400
