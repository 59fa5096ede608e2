"""Tests for the staged query pipeline (repro.runtime.pipeline)."""

from __future__ import annotations

import pytest

from repro.graph import molecule_dataset
from repro.graph.operations import random_connected_subgraph
from repro.methods import DirectSIMethod
from repro.runtime import GCConfig, GraphCacheSystem
from repro.runtime.pipeline import QueryPipeline
from tests.conftest import make_subgraph_queries

EXPECTED_ORDER = ["probe", "filter", "prune", "verify", "assemble", "admit"]


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(15, min_vertices=8, max_vertices=14, rng=31)


class TestPipelineShape:
    def test_default_stage_order(self):
        assert [stage.name for stage in QueryPipeline().stages] == EXPECTED_ORDER

    def test_executor_uses_default_pipeline(self, dataset):
        system = GraphCacheSystem(dataset, GCConfig(window_size=2, cache_capacity=8))
        assert [stage.name for stage in system.executor.pipeline.stages] == EXPECTED_ORDER

    def test_stages_are_stateless_singletons(self):
        # one stage list may serve many executors / concurrent queries
        stages = QueryPipeline().stages
        assert [stage.name for stage in stages] == EXPECTED_ORDER
        for stage in stages:
            assert not vars(stage), f"{stage.name} carries per-query state"


class TestPipelineExecution:
    def test_stage_latencies_recorded(self, dataset):
        system = GraphCacheSystem(dataset, GCConfig(window_size=2, cache_capacity=8))
        report = system.run_query(random_connected_subgraph(dataset[0], 6, rng=2), "subgraph")
        assert list(report.stage_seconds) == EXPECTED_ORDER
        assert all(seconds >= 0.0 for seconds in report.stage_seconds.values())
        # the coarse per-phase timers remain populated for compatibility
        assert report.filter_seconds >= 0.0
        assert report.total_seconds > 0.0

    def test_stage_seconds_flow_into_statistics(self, dataset):
        system = GraphCacheSystem(dataset, GCConfig(window_size=2, cache_capacity=8))
        system.run_queries(make_subgraph_queries(dataset, 5, 6, seed=4))
        breakdown = system.stage_breakdown()
        assert [row["stage"] for row in breakdown] == EXPECTED_ORDER
        shares = [row["share"] for row in breakdown]
        assert abs(sum(shares) - 1.0) < 1e-9
        assert all(row["total_seconds"] >= row["mean_seconds"] >= 0.0 for row in breakdown)

    def test_pipeline_without_cache_stages_matches_method(self, dataset):
        """With the cache off, probe/prune/admit contribute nothing: GC is
        plain Method M."""
        system = GraphCacheSystem(dataset, GCConfig(cache_enabled=False))
        baseline = DirectSIMethod()
        baseline.build(dataset)
        for query in make_subgraph_queries(dataset, 4, 6, seed=6):
            report = system.run_query(query)
            assert report.answer == baseline.execute(query.graph, query.query_type).answer
            assert report.probe_tests == 0
            assert list(report.stage_seconds) == EXPECTED_ORDER
        assert system.cache is None  # nothing can be admitted

    def test_deterministic_verification_order(self, dataset):
        """Candidates are verified in stable graph-id order across runs."""
        runs = []
        for _ in range(2):
            system = GraphCacheSystem(dataset, GCConfig(cache_enabled=False))
            report = system.run_query(
                random_connected_subgraph(dataset[2], 5, rng=8), "subgraph"
            )
            runs.append(sorted(report.verified_candidates, key=str))
        assert runs[0] == runs[1]
