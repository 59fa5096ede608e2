"""Additional coverage: run-result summaries, report internals, edge cases."""

from __future__ import annotations

import random

import pytest

from repro.graph import graph_from_edges, molecule_dataset, path_graph
from repro.graph.sdf import format_sdf_text, parse_sdf_text
from repro.methods.base import MethodM
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from repro.runtime.report import QueryReport
from repro.sharding.system import make_system
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

    def test_a_run_reports_only_the_evictions_it_caused(self, small_system):
        dataset, _ = small_system
        system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=2,
                                                    replacement_policy="LRU",
                                                    method="direct-si"))
        generator = WorkloadGenerator(dataset, rng=907)
        first = run_workload(system, generator.generate(40, mix="uniform", name="first"))
        assert first.evicted_entry_ids
        before = len(system.cache.eviction_reports())
        second = run_workload(system, generator.generate(5, mix="uniform", name="second"))
        assert second.evicted_entry_ids == [
            entry_id for report in system.cache.eviction_reports()[before:]
            for entry_id in report.evicted
        ]
        assert set(second.evicted_entry_ids).isdisjoint(first.evicted_entry_ids)

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

    def test_exact_hit_report_shape_end_to_end(self, small_system, monkeypatch):
        """A repeat of an admitted query is answered from the cache without
        running Method M's filter: no ``C_M``, no ``S'``, nothing verified, and
        it credits the ``|C_M|`` the first run had — on one engine and on
        two thread shards, each of which answers from its own entry."""
        dataset, _ = small_system
        pattern = make_subgraph_queries(dataset, 1, 6, seed=903)[0].graph
        filtered = []
        original = MethodM.filter_candidates

        def spy(self, query, query_type):
            filtered.append(query)
            return original(self, query, query_type)

        monkeypatch.setattr(MethodM, "filter_candidates", spy)
        for num_shards in (1, 2):
            config = GCConfig(cache_capacity=8, window_size=1, num_shards=num_shards)
            with make_system(dataset, config) as system:
                first = system.run_query(Query(pattern.copy(), QueryType.SUBGRAPH))
                assert first.exact_hit_entry is None and first.baseline_tests > 0
                assert len(filtered) == num_shards
                entries = [entry for cache in system.all_caches() for entry in cache.entries()]
                saved_before = {entry.entry_id: entry.stats.tests_saved for entry in entries}
                filtered.clear()
                repeat = system.run_query(Query(pattern.copy(), QueryType.SUBGRAPH))
                assert filtered == []
                assert repeat.exact_hit_entry is not None
                assert repeat.baseline_tests == first.baseline_tests
                assert repeat.tests_saved == first.baseline_tests
                assert repeat.dataset_tests == 0
                assert repeat.method_candidates == set()
                assert repeat.guaranteed_non_answers == set()
                assert repeat.verified_candidates == set()
                assert repeat.answer == repeat.guaranteed_answers == first.answer
                grown = sum(entry.stats.tests_saved - saved_before[entry.entry_id]
                            for entry in entries)
                assert grown == first.baseline_tests

    def test_an_unlabelled_query_is_no_exact_hit_of_its_bond_labelled_shape(self):
        """On an SDF dataset every edge carries its bond order.  A query with
        no edge labels has the label-path multisets of the same shape with
        bonds, but its edges match any bond: it is no exact hit of the
        labelled query, and its answer is Method M's alone — for a subgraph
        query a superset of the labelled one's, for a supergraph query a
        subset."""
        rng = random.Random(904)
        molecules = molecule_dataset(16, min_vertices=8, max_vertices=12, rng=904)
        for graph in molecules:
            for u, v in graph.edges():
                graph.add_edge(u, v, rng.choice("1112"))
        dataset = parse_sdf_text(format_sdf_text(molecules))
        method_alone = GraphCacheSystem(dataset, GCConfig(cache_enabled=False))
        patterns = {
            QueryType.SUBGRAPH: [query.graph for query in make_subgraph_queries(dataset, 6, 5, seed=905)],
            QueryType.SUPERGRAPH: [graph.copy() for graph in dataset[:6]],
        }
        for query_type, labelled_patterns in patterns.items():
            differs = 0
            for labelled in labelled_patterns:
                unlabelled = graph_from_edges(
                    labelled.edges(), labels={v: labelled.label(v) for v in labelled.vertices()})
                system = GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=1))
                first = system.run_query(Query(labelled, query_type))
                repeat = system.run_query(Query(unlabelled, query_type))
                assert repeat.exact_hit_entry is None
                assert repeat.answer == method_alone.run_query(Query(unlabelled, query_type)).answer
                differs += repeat.answer != first.answer
            assert differs, query_type  # some dataset graph has another bond there


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
