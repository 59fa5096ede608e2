"""Tests for the semantic-vs-exact-only cache modes and one method's
verification shared by many caller threads."""

from __future__ import annotations

import threading

import pytest

from repro.graph import molecule_dataset
from repro.graph.operations import random_connected_subgraph
from repro.methods import DirectSIMethod
from repro.runtime import GCConfig, GraphCacheSystem
from repro.query_model import Query, QueryType
from tests.conftest import make_subgraph_queries


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(18, min_vertices=10, max_vertices=16, rng=441)


class TestExactOnlyMode:
    def test_exact_only_cache_still_hits_repeats(self, dataset):
        config = GCConfig(cache_capacity=10, window_size=1, method="direct-si",
                          semantic_hits=False)
        system = GraphCacheSystem(dataset, config)
        pattern = random_connected_subgraph(dataset[0], 6, rng=1)
        first = system.run_query(pattern.copy(), "subgraph")
        second = system.run_query(pattern.copy(), "subgraph")
        assert second.exact_hit_entry is not None
        assert second.dataset_tests == 0
        assert second.answer == first.answer

    def test_exact_only_cache_misses_sub_and_super(self, dataset):
        config = GCConfig(cache_capacity=10, window_size=1, method="direct-si",
                          semantic_hits=False)
        system = GraphCacheSystem(dataset, config)
        pattern = random_connected_subgraph(dataset[0], 8, rng=2)
        system.run_query(pattern.copy(), "subgraph")
        shrunk = random_connected_subgraph(pattern, 5, rng=3)
        report = system.run_query(shrunk, "subgraph")
        assert report.sub_hit_entries == []
        assert report.super_hit_entries == []
        assert report.probe_tests == 0

    def test_semantic_cache_beats_exact_only_on_related_queries(self, dataset):
        queries = []
        pattern = random_connected_subgraph(dataset[0], 9, rng=4)
        queries.append(Query(graph=pattern.copy(), query_type=QueryType.SUBGRAPH))
        for seed in range(4):
            queries.append(Query(
                graph=random_connected_subgraph(pattern, 6, rng=10 + seed),
                query_type=QueryType.SUBGRAPH,
            ))

        def total_tests(enable_semantic: bool) -> int:
            config = GCConfig(cache_capacity=10, window_size=1, method="direct-si",
                              semantic_hits=enable_semantic)
            system = GraphCacheSystem(dataset, config)
            for query in queries:
                system.run_query(Query(graph=query.graph.copy(), query_type=query.query_type))
            return system.aggregate().total_dataset_tests

        assert total_tests(True) < total_tests(False)

    def test_exact_only_answers_still_correct(self, dataset):
        config = GCConfig(cache_capacity=8, window_size=1, method="direct-si",
                          semantic_hits=False)
        system = GraphCacheSystem(dataset, config)
        baseline = DirectSIMethod()
        baseline.build(dataset)
        for query in make_subgraph_queries(dataset, 8, 6, seed=5):
            report = system.run_query(query)
            assert report.answer == baseline.execute(query.graph, query.query_type).answer


class TestVerifierTally:
    def test_verifier_tally_thread_safe_total(self, dataset):
        """Eight caller threads verifying through one method lose no count."""
        method = DirectSIMethod()
        method.build(dataset)
        query = make_subgraph_queries(dataset, 1, 6, seed=9)[0]
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(method.execute(query.graph, "subgraph")))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(result.num_subiso_tests for result in results) == 8 * len(dataset)
        assert all(result.answer == results[0].answer for result in results)
