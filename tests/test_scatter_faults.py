"""Fault injection: stale/corrupt summaries and cost-budget backpressure.

The planner's failure contract: a shard whose summary cannot be trusted
(explicitly stale, or corrupted out of band — the integrity seal no longer
matches the content) must be **scattered to anyway** — degraded to full
scatter for that shard, never silently dropping answers — and the event
must be visible as ``summary_fallbacks`` in the planner stats and the
server's ``/metrics``.  The cost-based admission half: a hot shard whose
outstanding estimated cost exhausts its budget 429s *alone*, naming the
shard, while queries for the other shards keep flowing.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro.api import RemoteGraphService
from repro.errors import AdmissionRejectedError
from repro.graph import label_clustered_dataset, molecule_dataset
from repro.graph.graph import Graph
from repro.graph.operations import random_connected_subgraph
from repro.isomorphism.base import MatchResult, SubgraphMatcher
from repro.isomorphism.vf2 import VF2Matcher
from repro.methods import DirectSIMethod
from repro.query_model import Query, QueryType
from repro.runtime.config import GCConfig
from repro.server import QueryServer
from repro.server.batcher import RequestBatcher
from repro.sharding import ShardedGraphCacheSystem
from repro.workload import generate_trace, replay_trace


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(12, min_vertices=6, max_vertices=12, rng=41)


@pytest.fixture(scope="module")
def trace(dataset):
    return generate_trace(dataset, 40, skew="zipfian", query_type="mixed", seed=7)


def clone(trace):
    return [Query(graph=q.graph.copy(), query_type=q.query_type) for q in trace]


def reference_answers(dataset, trace):
    config = GCConfig(cache_enabled=False, num_shards=2)
    with ShardedGraphCacheSystem(dataset, config) as system:
        return [frozenset(r.answer) for r in system.run_queries(clone(trace))]


class TestSummaryFaults:
    def test_stale_summary_degrades_to_full_scatter(self, dataset, trace):
        expected = reference_answers(dataset, trace)
        config = GCConfig(cache_capacity=10, window_size=3,
                          num_shards=2, scatter_mode="short-circuit")
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.summaries[0].mark_stale()
            assert not system.summaries[0].usable()
            queries = clone(trace)
            answers = [frozenset(r.answer) for r in system.run_queries(queries)]
            stats = system.planner.stats.to_dict()
            # never silently drop answers...
            assert answers == expected
            # ...every query scattered to the untrusted shard...
            assert all(0 in q.metadata["scatter"]["targets"] for q in queries)
            assert all(0 in q.metadata["scatter"]["fallbacks"] for q in queries)
            # ...and the degradation is counted
            assert stats["summary_fallbacks"] == len(trace)
            assert stats["per_shard_skipped"][0] == 0

    def test_corrupted_summary_breaks_the_seal_and_degrades(self, dataset, trace):
        expected = reference_answers(dataset, trace)
        config = GCConfig(cache_capacity=10, window_size=3,
                          num_shards=2, scatter_mode="short-circuit")
        with ShardedGraphCacheSystem(dataset, config) as system:
            # out-of-band corruption: an empty union vector would "prove"
            # every subgraph query unanswerable on shard 1 — the seal check
            # must refuse to trust it rather than drop shard 1's answers
            system.summaries[1].union_features = Counter()
            system.summaries[1].label_set = frozenset()
            assert not system.summaries[1].usable()
            answers = [frozenset(r.answer) for r in system.run_queries(clone(trace))]
            assert answers == expected
            assert system.planner.stats.to_dict()["summary_fallbacks"] >= len(trace)

    def test_refresh_restores_pruning_after_corruption(self, dataset, trace):
        config = GCConfig(cache_capacity=10, window_size=3,
                          num_shards=2, scatter_mode="short-circuit")
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.summaries[0].union_features = Counter()
            assert not system.summaries[0].usable()
            system.refresh_summaries()
            assert system.summaries[0].usable()
            answers = [frozenset(r.answer) for r in system.run_queries(clone(trace))]
            assert answers == reference_answers(dataset, trace)
            assert system.planner.stats.to_dict()["summary_fallbacks"] == 0

    def test_fallbacks_are_visible_in_server_metrics(self, dataset, trace):
        config = GCConfig(cache_capacity=10, window_size=3,
                          num_shards=2, scatter_mode="short-circuit")
        with QueryServer(dataset, config, max_batch_size=2,
                         max_queue_depth=256) as server:
            server.system.summaries[0].mark_stale()
            client = RemoteGraphService.for_server(server)
            result = replay_trace(client, generate_trace(
                dataset, 10, skew="uniform", query_type="mixed", seed=3),
                num_threads=2)
            assert result.served == 10
            scatter = client.metrics().scatter
            assert scatter["mode"] == "short-circuit"
            assert scatter["stats"]["summary_fallbacks"] >= 10
            assert scatter["summaries"][0]["usable"] is False
            assert scatter["summaries"][0]["stale"] is True

    def test_all_shards_pruned_yields_sound_empty_answer(self, dataset):
        """A query no shard can answer (unknown label) short-circuits to an
        empty answer without scattering anywhere — matching ground truth."""
        config = GCConfig(num_shards=2, scatter_mode="short-circuit")
        alien = Graph()
        alien.add_vertex(0, "Zz")
        alien.add_vertex(1, "Zz")
        alien.add_edge(0, 1)
        with ShardedGraphCacheSystem(dataset, config) as system:
            query = Query(graph=alien, query_type=QueryType.SUBGRAPH)
            report = system.run_query(query)
            assert report.answer == set()
            assert query.metadata["scatter"]["fanout"] == 0
            stats = system.planner.stats.to_dict()
            assert stats["zero_target_queries"] == 1
        config_full = GCConfig(num_shards=2, cache_enabled=False)
        with ShardedGraphCacheSystem(dataset, config_full) as system:
            ground_truth = system.run_query(
                Query(graph=alien.copy(), query_type=QueryType.SUBGRAPH))
            assert ground_truth.answer == set()


class _SlowMatcher(SubgraphMatcher):
    """VF2 with a fixed per-test sleep, so batches stay in flight while the
    admission test submits follow-up queries."""

    name = "vf2+sleep"

    def __init__(self, latency_seconds: float) -> None:
        self._inner = VF2Matcher()
        self._latency = latency_seconds

    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        time.sleep(self._latency)
        return self._inner.find_embedding(query, target)


class TestCostBasedAdmission:
    @pytest.fixture()
    def clustered(self):
        return label_clustered_dataset(2, 6, num_vertices=(6, 9), rng=11)

    def _cluster_query(self, dataset, cluster: int, seed: int) -> Query:
        source = next(g for g in dataset if str(g.graph_id).startswith(f"c{cluster}-"))
        pattern = random_connected_subgraph(source, min(4, source.num_vertices), rng=seed)
        return Query(graph=pattern, query_type=QueryType.SUBGRAPH)

    def test_hot_shard_rejects_while_cold_shard_admits(self, clustered):
        config = GCConfig(cache_enabled=False, num_shards=2,
                          scatter_mode="short-circuit")
        with ShardedGraphCacheSystem(
            clustered, config,
            method_factory=lambda: DirectSIMethod(verifier=_SlowMatcher(0.05)),
        ) as system:
            # observe real per-test costs first, so estimates are honest
            system.run_queries([self._cluster_query(clustered, 0, 1),
                                self._cluster_query(clustered, 1, 2)])
            batcher = RequestBatcher(
                system, max_batch_size=1,
                max_queue_depth=64, admission_mode="cost-based",
                max_shard_cost_seconds=0.4,
            )
            try:
                # ~6 candidates × 50ms ≈ 0.3s estimated per hot-shard query:
                # the first fits the 0.4s budget, the second must not
                hot_first = batcher.submit(self._cluster_query(clustered, 0, 3))
                with pytest.raises(AdmissionRejectedError) as rejected:
                    batcher.submit(self._cluster_query(clustered, 0, 4))
                assert rejected.value.shard == 0
                assert rejected.value.estimated_cost_seconds > 0
                # the cold shard keeps flowing while shard 0 is saturated
                cold = batcher.submit(self._cluster_query(clustered, 1, 5))
                assert hot_first.result(timeout=30).report is not None
                assert cold.result(timeout=30).report is not None
                stats = batcher.stats()
                assert stats.rejected_cost == 1
                assert stats.rejected == 1
                assert stats.admission_mode == "cost-based"
            finally:
                batcher.close()
            # reservations fully released after completion
            assert batcher.stats().shard_outstanding == {}

    def test_unsharded_cost_rejection_names_no_shard(self, dataset):
        """Cost-based admission over a plain (unsharded) system prices it as
        one pool: the 429 must say 'system cost budget exhausted', never
        point the operator at a shard that does not exist."""
        from repro.runtime.system import GraphCacheSystem

        config = GCConfig(cache_enabled=False, admission_mode="cost-based")
        system = GraphCacheSystem(
            dataset, config, method=DirectSIMethod(verifier=_SlowMatcher(0.05)))
        source = dataset[0]
        make_query = lambda seed: Query(  # noqa: E731 - tiny local factory
            graph=random_connected_subgraph(source, min(4, source.num_vertices),
                                            rng=seed),
            query_type=QueryType.SUBGRAPH,
        )
        system.run_query(make_query(1))  # observe a real per-test cost
        batcher = RequestBatcher(system, max_batch_size=1,
                                 max_queue_depth=64,
                                 admission_mode="cost-based",
                                 max_shard_cost_seconds=0.4)
        try:
            first = batcher.submit(make_query(2))
            with pytest.raises(AdmissionRejectedError) as rejected:
                batcher.submit(make_query(3))
            assert rejected.value.shard is None
            assert "system cost budget exhausted" in str(rejected.value)
            assert "shard" not in str(rejected.value)
            assert first.result(timeout=30).report is not None
        finally:
            batcher.close()

    def test_queue_depth_mode_never_prices_shards(self, clustered):
        config = GCConfig(cache_enabled=False, num_shards=2,
                          scatter_mode="short-circuit")
        with ShardedGraphCacheSystem(
            clustered, config,
            method_factory=lambda: DirectSIMethod(verifier=VF2Matcher()),
        ) as system:
            batcher = RequestBatcher(system, max_batch_size=2,
                                     admission_mode="queue-depth")
            try:
                futures = [batcher.submit(self._cluster_query(clustered, 0, seed))
                           for seed in range(6)]
                for future in futures:
                    assert future.result(timeout=30).report is not None
                stats = batcher.stats()
                assert stats.rejected_cost == 0
                assert stats.shard_outstanding == {}
            finally:
                batcher.close()
