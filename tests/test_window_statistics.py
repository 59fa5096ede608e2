"""Tests for the admission window and the Statistics Manager."""

from __future__ import annotations

import pytest

from repro.cache import EvictionReport, GraphCache, StatisticsManager
from repro.errors import ConfigurationError
from repro.graph import molecule_graph
from repro.query_model import Query, QueryType
from repro.runtime.report import QueryReport


def make_query(seed: int) -> Query:
    return Query(graph=molecule_graph(5, rng=seed), query_type=QueryType.SUBGRAPH)


class TestWindowManager:
    """The admission window inside :class:`GraphCache`."""

    def test_offer_returns_batch_when_full(self):
        cache = GraphCache(capacity=10, window_size=3)
        queries = [make_query(seed) for seed in (1, 2, 3)]
        assert cache.offer(queries[0], answer=set(), observed_test_cost=0.0) is None
        assert cache.offer(queries[1], answer=set(), observed_test_cost=0.0) is None
        assert len(cache) == 0
        report = cache.offer(queries[2], answer=set(), observed_test_cost=0.0)
        assert isinstance(report, EvictionReport)
        assert report.num_admitted == 3
        assert [entry.graph for entry in cache.entries()] == [q.graph for q in queries]
        assert cache.eviction_reports() == [report]
        assert cache.flush_window() is None  # nothing left pending

    def test_flush_releases_partial_window(self):
        cache = GraphCache(capacity=10, window_size=10)
        cache.offer(make_query(4), answer=set(), observed_test_cost=0.0)
        cache.offer(make_query(5), answer=set(), observed_test_cost=0.0)
        report = cache.flush_window()
        assert report is not None and report.num_admitted == 2
        assert len(cache) == 2
        assert cache.flush_window() is None

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            GraphCache(window_size=0)
        with pytest.raises(ConfigurationError):
            GraphCache(window_size=-1)


def record(
    query_id: int,
    baseline_tests: int = 10,
    dataset_tests: int = 5,
    sub_hits: int = 1,
    super_hits: int = 0,
    exact: bool = False,
    total_seconds: float = 0.01,
    baseline_seconds: float = 0.02,
    cache_population: int = 0,
    stage_seconds: dict[str, float] | None = None,
) -> QueryReport:
    return QueryReport(
        query=Query(graph=molecule_graph(3, rng=query_id), query_id=query_id),
        baseline_tests=baseline_tests,
        dataset_tests=dataset_tests,
        sub_hit_entries=list(range(sub_hits)),
        super_hit_entries=list(range(super_hits)),
        exact_hit_entry=0 if exact else None,
        total_seconds=total_seconds,
        baseline_seconds=baseline_seconds,
        cache_population=cache_population,
        stage_seconds=dict(stage_seconds or {}),
    )


class TestStatisticsManager:
    def test_empty_aggregate(self):
        aggregate = StatisticsManager().aggregate()
        assert aggregate.num_queries == 0
        assert aggregate.test_speedup == 1.0

    def test_aggregate_counts(self):
        manager = StatisticsManager()
        manager.record(record(1))
        manager.record(record(2, sub_hits=0, super_hits=2))
        manager.record(record(3, sub_hits=0, exact=True, dataset_tests=0))
        manager.record(record(4, sub_hits=0))
        aggregate = manager.aggregate()
        assert aggregate.num_queries == 4
        assert aggregate.num_hits == 3
        assert aggregate.num_exact_hits == 1
        assert aggregate.num_sub_hits == 1
        assert aggregate.num_super_hits == 2
        assert aggregate.hit_ratio == 0.75
        assert aggregate.total_dataset_tests == 15
        assert aggregate.total_baseline_tests == 40

    def test_speedup_definition(self):
        manager = StatisticsManager()
        manager.record(record(1, baseline_tests=20, dataset_tests=10))
        manager.record(record(2, baseline_tests=30, dataset_tests=15))
        aggregate = manager.aggregate()
        assert aggregate.test_speedup == pytest.approx(2.0)

    def test_infinite_speedup_when_no_tests(self):
        manager = StatisticsManager()
        manager.record(record(1, baseline_tests=10, dataset_tests=0, exact=True))
        assert manager.aggregate().test_speedup == float("inf")

    def test_time_speedup(self):
        manager = StatisticsManager()
        manager.record(record(1, total_seconds=0.01, baseline_seconds=0.04))
        manager.record(record(2, total_seconds=0.01, baseline_seconds=0.0))
        assert manager.aggregate().time_speedup == pytest.approx(2.0)

    def test_tests_saved_property(self):
        r = record(1, baseline_tests=12, dataset_tests=4)
        assert r.tests_saved == 8

    def test_hit_percentages(self):
        # the Fig. 2(b) quantity rides on each report, so run_workload can
        # chart exactly its own queries
        assert record(1, sub_hits=2, super_hits=1, cache_population=10).hit_percentage \
            == pytest.approx(30.0)
        assert record(2, sub_hits=0, super_hits=0, cache_population=10).hit_percentage == 0.0
        assert record(3, sub_hits=0, exact=True, cache_population=4).hit_percentage \
            == pytest.approx(25.0)

    def test_hit_percentages_without_population(self):
        # population 0 -> denominator 1
        assert record(1, sub_hits=2).hit_percentage == pytest.approx(200.0)

    def test_stage_breakdown_is_summed_in_first_seen_order(self):
        manager = StatisticsManager()
        manager.record(record(1, stage_seconds={"filter": 0.25, "verify": 0.5}))
        manager.record(record(2, stage_seconds={"filter": 0.75, "merge": 0.5}))
        rows = {row["stage"]: row for row in manager.stage_breakdown()}
        assert list(rows) == ["filter", "verify", "merge"]
        assert rows["filter"]["total_seconds"] == pytest.approx(1.0)
        assert rows["filter"]["mean_seconds"] == pytest.approx(0.5)
        # a stage's mean is over the queries that ran it
        assert rows["merge"]["mean_seconds"] == pytest.approx(0.5)
        assert rows["filter"]["share"] == pytest.approx(0.5)
        assert sum(row["share"] for row in rows.values()) == pytest.approx(1.0)

    def test_to_dict_is_json_safe(self):
        import json

        manager = StatisticsManager()
        # dataset_tests=0 with baseline_tests>0 -> infinite test_speedup,
        # the field JSON cannot carry
        manager.record(record(1, baseline_tests=10, dataset_tests=0, exact=True))
        snapshot = manager.to_dict()
        encoded = json.dumps(snapshot)  # must not raise
        decoded = json.loads(encoded)
        assert decoded["num_queries"] == 1
        assert decoded["aggregate"]["test_speedup"] is None  # inf -> None
        assert decoded["aggregate"]["hit_ratio"] == 1.0

    def test_to_dict_excludes_records_by_default(self):
        manager = StatisticsManager()
        manager.record(record(1))
        assert set(manager.to_dict()) == {"num_queries", "aggregate", "stage_breakdown"}
        assert manager.to_dict()["num_queries"] == 1

    def test_to_dict_has_no_shard_keys_without_shards(self):
        manager = StatisticsManager()
        manager.record(record(1))
        snapshot = manager.to_dict()
        assert "shards" not in snapshot and "num_shards" not in snapshot

    def test_to_dict_per_shard_keys_json_round_trip(self):
        import json

        merged = StatisticsManager()
        shard0, shard1 = StatisticsManager(), StatisticsManager()
        merged.attach_shard("shard0", shard0)
        merged.attach_shard("shard1", shard1)
        # shard0 sees an infinite-speedup query (the JSON-hostile value) and
        # the merged stream carries the summed view
        shard0.record(record(1, baseline_tests=10, dataset_tests=0, exact=True))
        shard1.record(record(1, baseline_tests=6, dataset_tests=6, sub_hits=0))
        merged.record(record(1, baseline_tests=16, dataset_tests=6, exact=True))

        snapshot = merged.to_dict()
        decoded = json.loads(json.dumps(snapshot))  # full JSON round-trip

        assert decoded["num_shards"] == 2
        assert list(decoded["shards"]) == ["shard0", "shard1"]
        assert decoded["shards"]["shard0"]["num_queries"] == 1
        assert decoded["shards"]["shard0"]["aggregate"]["test_speedup"] is None
        assert decoded["shards"]["shard1"]["aggregate"]["test_speedup"] == 1.0
        assert decoded["aggregate"]["num_exact_hits"] == 1

    def test_attach_shard_rejects_self(self):
        manager = StatisticsManager()
        with pytest.raises(ValueError):
            manager.attach_shard("self", manager)
        assert "shards" not in manager.to_dict()  # nothing was attached

    def test_reset(self):
        manager = StatisticsManager()
        manager.record(record(1, stage_seconds={"filter": 0.1}))
        manager.reset()
        assert manager.aggregate() == StatisticsManager().aggregate()
        assert manager.stage_breakdown() == []
        manager.record(record(2, sub_hits=0))
        assert manager.aggregate().num_queries == 1
        assert manager.aggregate().num_hits == 0
