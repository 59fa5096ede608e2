"""Additional coverage: run-result summaries, report internals, edge cases."""

from __future__ import annotations

import pytest

from repro.graph import molecule_dataset, path_graph
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from repro.runtime.report import QueryReport
from repro.workload import Workload, WorkloadGenerator, run_workload
from repro.workload.runner import WorkloadRunResult
from tests.conftest import make_subgraph_queries


@pytest.fixture(scope="module")
def small_system():
    dataset = molecule_dataset(12, min_vertices=8, max_vertices=12, rng=901)
    system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=2,
                                                method="direct-si"))
    return dataset, system


class TestWorkloadRunResult:
    def test_summary_fields(self, small_system):
        dataset, system = small_system
        workload = WorkloadGenerator(dataset, rng=902).generate(6, mix="uniform", name="w")
        result = run_workload(system, workload)
        summary = result.summary()
        assert summary["workload"] == "w"
        assert summary["method"] == "direct-si"
        assert summary["queries"] == 6
        assert summary["baseline_tests"] >= summary["dataset_tests"]
        assert result.test_speedup >= 1.0
        assert result.index_memory_bytes == 0  # direct SI has no index

    def test_each_run_describes_exactly_its_own_workload(self, small_system):
        dataset, _ = small_system
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=2,
                                                    method="direct-si"))
        generator = WorkloadGenerator(dataset, rng=905)
        warmup = generator.generate(4, mix="uniform", name="warm")
        system.warm_cache(list(warmup), reset_statistics=False)
        first = run_workload(system, generator.generate(5, mix="uniform", name="first"))
        second = generator.generate(7, mix="uniform", name="second")
        result = run_workload(system, second)
        assert len(result.hit_percentages) == result.aggregate.num_queries == len(second)
        assert result.aggregate.total_dataset_tests == sum(
            report.dataset_tests for report in result.reports
        )
        stage_totals = {row["stage"]: row["total_seconds"] for row in result.stage_breakdown}
        assert stage_totals["verify"] == pytest.approx(
            sum(report.stage_seconds["verify"] for report in result.reports)
        )
        assert first.aggregate.num_queries == 5
        # the system's own manager still covers everything it ran
        assert system.aggregate().num_queries == 4 + 5 + 7

    def test_empty_result_defaults(self):
        result = WorkloadRunResult(workload_name="x", policy="HD", method="direct-si")
        assert result.test_speedup == 1.0
        assert result.time_speedup == 1.0
        assert result.summary()["queries"] == 0


class TestQueryReportDetails:
    def test_num_hits_counts_all_kinds(self):
        query = Query(graph=path_graph(["C", "O"]), query_type=QueryType.SUBGRAPH)
        report = QueryReport(query=query, sub_hit_entries=[1, 2], super_hit_entries=[3],
                             exact_hit_entry=4)
        assert report.num_hits == 4

    def test_journey_speedup_field_matches_property(self):
        query = Query(graph=path_graph(["C", "O"]), query_type=QueryType.SUBGRAPH)
        report = QueryReport(query=query, baseline_tests=10, dataset_tests=5)
        assert report.journey()["test_speedup"] == report.test_speedup

    def test_zero_candidate_query_speedup_is_one(self):
        query = Query(graph=path_graph(["Zz", "Zz"]), query_type=QueryType.SUBGRAPH)
        report = QueryReport(query=query, baseline_tests=0, dataset_tests=0)
        assert report.test_speedup == 1.0
        assert report.tests_saved == 0

    def test_exact_hit_report_shape_end_to_end(self, small_system):
        dataset, system = small_system
        pattern = make_subgraph_queries(dataset, 1, 6, seed=903)[0]
        system.run_query(Query(graph=pattern.graph.copy(), query_type=QueryType.SUBGRAPH))
        if system.cache is not None:
            system.cache.flush_window()
        repeat = system.run_query(Query(graph=pattern.graph.copy(),
                                        query_type=QueryType.SUBGRAPH))
        if repeat.exact_hit_entry is not None:
            assert repeat.verified_candidates == set()
            assert repeat.answer == repeat.guaranteed_answers
            assert repeat.guaranteed_non_answers == (
                repeat.method_candidates - repeat.answer
            )


class TestSystemPopulationTrace:
    def test_hit_percentages_use_population_at_query_time(self, small_system):
        dataset, _ = small_system
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=1,
                                                    method="direct-si"))
        queries = make_subgraph_queries(dataset, 4, 6, seed=904)
        result = run_workload(system, Workload("w", queries))
        percentages = result.hit_percentages
        assert percentages == [report.hit_percentage for report in result.reports]
        assert len(percentages) == 4
        # the first query runs against an empty cache: zero percent by definition
        assert percentages[0] == 0.0
