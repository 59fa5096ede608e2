"""Tests for the runtime: configuration, executor, reports and the facade."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.graph import molecule_dataset
from repro.graph.operations import random_connected_subgraph
from repro.methods import DirectSIMethod
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem, QueryReport
from tests.conftest import make_subgraph_queries


class TestGCConfig:
    def test_defaults_valid(self):
        GCConfig().validate()

    def test_round_trip(self):
        config = GCConfig(cache_capacity=20, replacement_policy="PIN", window_size=4)
        restored = GCConfig.from_dict(config.to_dict())
        assert restored == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_capacity": 0},
            {"window_size": 0},
            {"cache_capacity": 5, "window_size": 10},
            {"num_shards": 0},
            {"trace_sample_rate": 1.5},
            {"shard_backend": "fork"},
            {"shard_backend": "threads"},
            {"scatter_mode": "sideways"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GCConfig(**kwargs).validate()

    def test_unknown_shard_backend_names_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            GCConfig(shard_backend="gevent").validate()
        message = str(excinfo.value)
        assert "gevent" in message
        assert "thread" in message and "process" in message

    def test_shard_backend_round_trips(self):
        config = GCConfig(num_shards=2, shard_backend="process", scatter_mode="short-circuit")
        restored = GCConfig.from_dict(config.to_dict())
        assert restored.shard_backend == "process"
        assert restored == config
        restored.validate()


class TestQueryReport:
    def test_speedup_properties(self):
        query = Query(graph=molecule_dataset(1, rng=1)[0], query_type=QueryType.SUBGRAPH)
        report = QueryReport(query=query, baseline_tests=20, dataset_tests=10)
        assert report.tests_saved == 10
        assert report.test_speedup == 2.0

    def test_infinite_speedup(self):
        query = Query(graph=molecule_dataset(1, rng=2)[0], query_type=QueryType.SUBGRAPH)
        report = QueryReport(query=query, baseline_tests=5, dataset_tests=0)
        assert report.test_speedup == float("inf")

    def test_journey_keys(self):
        query = Query(graph=molecule_dataset(1, rng=3)[0], query_type=QueryType.SUBGRAPH)
        report = QueryReport(query=query)
        journey = report.journey()
        assert {"H", "H_prime", "C_M", "S", "S_prime", "C", "R", "A"} <= set(journey)


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(20, min_vertices=8, max_vertices=16, rng=51)


class TestGraphCacheSystem:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphCacheSystem([], GCConfig())

    def test_answers_match_baseline_method(self, dataset):
        config = GCConfig(cache_capacity=10, window_size=2, method="graphgrep-sx",
                          method_options={"feature_size": 2})
        system = GraphCacheSystem(dataset, config)
        baseline = DirectSIMethod()
        baseline.build(dataset)
        for query in make_subgraph_queries(dataset, 10, 6, seed=3):
            report = system.run_query(query)
            expected = baseline.execute(query.graph, query.query_type).answer
            assert report.answer == expected

    def test_repeated_query_becomes_exact_hit(self, dataset):
        config = GCConfig(cache_capacity=10, window_size=1)
        system = GraphCacheSystem(dataset, config)
        query_graph = random_connected_subgraph(dataset[0], 6, rng=5)
        first = system.run_query(query_graph.copy(), "subgraph")
        second = system.run_query(query_graph.copy(), "subgraph")
        assert first.exact_hit_entry is None
        assert second.exact_hit_entry is not None
        assert second.dataset_tests == 0
        assert second.answer == first.answer

    def test_cache_disabled_is_pure_method(self, dataset):
        config = GCConfig(cache_enabled=False)
        system = GraphCacheSystem(dataset, config)
        query = random_connected_subgraph(dataset[1], 6, rng=6)
        report = system.run_query(query, "subgraph")
        assert report.probe_tests == 0
        assert report.dataset_tests == len(report.method_candidates)
        assert system.cache is None
        assert system.cache_memory_bytes() == 0

    def test_statistics_recorded(self, dataset):
        system = GraphCacheSystem(dataset, GCConfig(window_size=2, cache_capacity=8))
        queries = make_subgraph_queries(dataset, 6, 5, seed=7)
        reports = system.run_queries(queries)
        aggregate = system.aggregate()
        assert aggregate.num_queries == 6
        assert aggregate.total_dataset_tests == sum(report.dataset_tests for report in reports)
        assert aggregate.total_baseline_tests == sum(report.baseline_tests for report in reports)
        assert [row["stage"] for row in system.stage_breakdown()] == list(reports[0].stage_seconds)

    def test_warm_cache_resets_statistics(self, dataset):
        system = GraphCacheSystem(dataset, GCConfig(window_size=2, cache_capacity=8))
        system.warm_cache(make_subgraph_queries(dataset, 4, 6, seed=8))
        assert system.aggregate().num_queries == 0
        assert len(system.cache) > 0

    def test_a_first_miss_estimates_its_own_filter_and_tests(self, dataset):
        # empty cache: C = C_M, and the running average is this query's own
        # cost per test, so the estimate is the filter plus the verification
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=2))
        report = system.run_query(random_connected_subgraph(dataset[2], 5, rng=9), "subgraph")
        assert report.dataset_tests == report.baseline_tests > 0
        assert isinstance(report.baseline_seconds, float)
        assert report.baseline_seconds == pytest.approx(
            report.filter_seconds + report.verify_seconds
        )

    def test_an_exact_hit_prices_its_recorded_tests_at_the_average_cost(self, dataset):
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=1))
        query_graph = random_connected_subgraph(dataset[0], 6, rng=5)
        first = system.run_query(query_graph.copy(), "subgraph")
        second = system.run_query(query_graph.copy(), "subgraph")
        assert second.exact_hit_entry is not None
        assert second.filter_seconds == 0.0
        assert second.baseline_tests == first.baseline_tests > 0
        assert second.baseline_seconds == pytest.approx(
            second.baseline_tests * first.verify_seconds / first.dataset_tests
        )

    def test_method_m_is_not_run_a_second_time(self, dataset, monkeypatch):
        # Method M's cost is estimated, never measured by running it alone
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=2))
        calls = {"execute": 0, "filter": 0}
        filter_candidates = system.method.filter_candidates

        def counted_filter(graph, query_type):
            calls["filter"] += 1
            return filter_candidates(graph, query_type)

        def forbidden_execute(graph, query_type):
            calls["execute"] += 1
            raise AssertionError("the pipeline ran Method M alone")

        monkeypatch.setattr(system.method, "filter_candidates", counted_filter)
        monkeypatch.setattr(system.method, "execute", forbidden_execute)
        queries = make_subgraph_queries(dataset, 6, 5, seed=7)
        reports = system.run_queries(queries)
        assert calls["execute"] == 0
        assert calls["filter"] == sum(report.exact_hit_entry is None for report in reports)

    def test_time_speedup_is_the_estimate_over_gc_seconds(self, dataset):
        system = GraphCacheSystem(dataset, GCConfig(window_size=2, cache_capacity=8))
        reports = system.run_queries(make_subgraph_queries(dataset, 6, 5, seed=7))
        aggregate = system.aggregate()
        assert aggregate.total_baseline_seconds == pytest.approx(
            sum(report.baseline_seconds for report in reports)
        )
        assert aggregate.time_speedup == pytest.approx(
            aggregate.total_baseline_seconds / aggregate.total_seconds
        )

    def test_average_test_cost_weights_each_query_by_its_tests(self, dataset):
        executor = GraphCacheSystem(dataset, GCConfig()).executor
        assert executor.per_test_cost(0, 0.0) == 0.0
        executor.observe_test_cost(2, 0.002)
        executor.observe_test_cost(6, 0.002)
        executor.observe_test_cost(0, 5.0)  # a query with no tests is no sample
        assert executor.per_test_cost(0, 0.0) == pytest.approx(0.004 / 8)
        # a query that ran tests is priced at its own cost, not the average
        assert executor.per_test_cost(4, 0.02) == pytest.approx(0.005)

    def test_memory_overhead_ratio(self, dataset):
        system = GraphCacheSystem(
            dataset,
            GCConfig(method="graphgrep-sx", method_options={"feature_size": 3}, window_size=2),
        )
        system.run_queries(make_subgraph_queries(dataset, 6, 6, seed=10))
        assert system.index_memory_bytes() > 0
        assert 0.0 <= system.memory_overhead_ratio() < 1.0

    def test_describe(self, dataset):
        system = GraphCacheSystem(dataset, GCConfig())
        description = system.describe()
        assert description["dataset_size"] == len(dataset)
        assert "cache" in description
        assert description["method"]["name"] == "graphgrep-sx"

    def test_supergraph_queries_supported(self, dataset):
        from repro.graph.operations import extend_graph

        labels = sorted({label for g in dataset for label in g.label_set()})
        system = GraphCacheSystem(dataset, GCConfig(window_size=2, cache_capacity=8))
        rng = random.Random(11)
        query = extend_graph(dataset[3], 5, labels=labels, rng=rng)
        report = system.run_query(query, "supergraph")
        baseline = DirectSIMethod()
        baseline.build(dataset)
        assert report.answer == baseline.execute(query, "supergraph").answer

    def test_custom_method_instance(self, dataset):
        method = DirectSIMethod()
        system = GraphCacheSystem(dataset, GCConfig(), method=method)
        assert system.method is method
        report = system.run_query(random_connected_subgraph(dataset[0], 5, rng=12), "subgraph")
        assert report.baseline_tests == len(dataset)
