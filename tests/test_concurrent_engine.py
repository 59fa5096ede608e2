"""Property-style tests: every execution mode returns identical answer sets.

The acceptance property of the thread-safe engine: over a seeded mixed
sub/supergraph workload, cache-enabled, cache-disabled, sequential and
concurrent execution (four test-owned caller threads on ``run_query``) all
agree on every query's answer set.  Cache state may follow a different trajectory under concurrency
(admission order interleaves), but answers may not change: the cache only
prunes candidates it can guarantee.
"""

from __future__ import annotations

import pytest

from repro.graph import molecule_dataset
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from repro.workload import WorkloadGenerator, WorkloadMix
from tests.differential import assert_booked_exactly_once, run_on_threads


def _mixed_workload(dataset, num_queries: int, seed: int) -> list[Query]:
    """Interleaved subgraph/supergraph queries from the same pattern pools."""
    half = num_queries // 2
    sub = WorkloadGenerator(dataset, rng=seed).generate(
        half, mix="popular", name="sub-half"
    )
    super_mix = WorkloadMix(
        query_type=QueryType.SUPERGRAPH,
        repeat_fraction=0.3,
        extend_fraction=0.4,
        shrink_fraction=0.1,
        fresh_fraction=0.2,
    )
    sup = WorkloadGenerator(dataset, rng=seed + 1).generate(
        num_queries - half, mix=super_mix, name="super-half"
    )
    queries: list[Query] = []
    for pair in zip(sub, sup):
        queries.extend(pair)
    return queries


def _clone(queries: list[Query]) -> list[Query]:
    """Fresh Query objects per run so ids/metadata never leak across systems."""
    return [Query(graph=q.graph.copy(), query_type=q.query_type) for q in queries]


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(16, min_vertices=7, max_vertices=13, rng=77)


@pytest.fixture(scope="module")
def workload(dataset):
    return _mixed_workload(dataset, 200, seed=13)


@pytest.fixture(scope="module")
def reference_answers(dataset, workload):
    """Sequential cache-enabled execution is the reference arm."""
    system = GraphCacheSystem(dataset, GCConfig(window_size=5, cache_capacity=25))
    return [report.answer for report in system.run_queries(_clone(workload))]


class TestExecutionModeEquivalence:
    def test_workload_is_mixed(self, workload):
        types = {query.query_type for query in workload}
        assert types == {QueryType.SUBGRAPH, QueryType.SUPERGRAPH}
        assert len(workload) >= 200

    def test_cache_disabled_matches(self, dataset, workload, reference_answers):
        system = GraphCacheSystem(dataset, GCConfig(cache_enabled=False))
        answers = [report.answer for report in system.run_queries(_clone(workload))]
        assert answers == reference_answers

    def test_concurrent_matches(self, dataset, workload, reference_answers):
        system = GraphCacheSystem(dataset, GCConfig(window_size=5, cache_capacity=25))
        reports = run_on_threads(system, _clone(workload), threads=4)
        assert [report.answer for report in reports] == reference_answers

    def test_concurrent_reports_keep_submission_order(self, dataset, workload):
        system = GraphCacheSystem(dataset, GCConfig(window_size=5, cache_capacity=25))
        queries = _clone(workload[:40])
        reports = run_on_threads(system, queries, threads=4)
        assert [r.query.query_id for r in reports] == [q.query_id for q in queries]
        assert_booked_exactly_once(system, reports, queries)

    def test_concurrent_statistics_complete(self, dataset, workload):
        system = GraphCacheSystem(dataset, GCConfig(window_size=5, cache_capacity=25))
        queries = _clone(workload[:60])
        reports = run_on_threads(system, queries, threads=4)
        assert_booked_exactly_once(system, reports, queries)
        # hit-% denominators ride on each report, so they stay aligned even
        # when queries complete out of submission order
        for report in reports:
            assert 0 <= report.cache_population <= system.cache.capacity
