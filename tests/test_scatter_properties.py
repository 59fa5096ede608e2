"""Property-based tests: short-circuit scatter soundness.

Three families of properties lock the planner down:

* **Pruning soundness** — a shard the :class:`ScatterPlanner` skips must
  contribute *zero* answers under full scatter.  Checked against ground
  truth: every skipped shard's partition is brute-force verified with VF2
  (no summaries, no filter index involved) and must contain no answer.
* **Summary consistency** — the partition-level vectors (union/common
  features, size envelope) bound every member graph of a hash-routed
  partition, and the summaries a system serves with stay exactly the build of
  its partitions after queries have run.
* **Visibility** — the served ``/metrics`` scatter section reports the
  planner's counts and summaries.

A summary is built once and trusted, so planning a subgraph query reads the
union vector only at the query's own feature keys.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import RemoteGraphService
from repro.features.base import FeatureExtractor
from repro.features.paths import PathFeatureExtractor
from repro.graph import label_clustered_dataset, molecule_dataset
from repro.graph.graph import Graph
from repro.isomorphism.vf2 import VF2Matcher
from repro.query_model import Query, QueryType
from repro.runtime.config import GCConfig
from repro.server import QueryServer
from repro.sharding import ShardRouter, ShardSummary
from repro.sharding.system import ShardedGraphCacheSystem
from repro.workload import generate_trace, replay_trace

COMMON_SETTINGS = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_dataset(seed: int, size: int):
    return molecule_dataset(size, min_vertices=5, max_vertices=11, rng=seed)


def brute_force_answers(partition, query) -> set:
    """Ground-truth answer ids of ``query`` over ``partition`` (VF2 only)."""
    matcher = VF2Matcher()
    answers = set()
    for graph in partition:
        if query.query_type is QueryType.SUBGRAPH:
            hit = matcher.is_subgraph(query.graph, graph)
        else:
            hit = matcher.is_subgraph(graph, query.graph)
        if hit:
            answers.add(graph.graph_id)
    return answers


class TestPruningSoundness:
    @COMMON_SETTINGS
    @given(seed=st.integers(0, 2**16), num_shards=st.integers(2, 4),
           query_seed=st.integers(0, 2**16))
    def test_skipped_shards_contribute_zero_answers(self, seed, num_shards, query_seed):
        dataset = make_dataset(seed, 10)
        config = GCConfig(cache_capacity=10, window_size=3,
                          num_shards=num_shards, scatter_mode="short-circuit")
        trace = generate_trace(dataset, 12, skew="zipfian",
                               query_type="mixed", seed=query_seed)
        with ShardedGraphCacheSystem(dataset, config) as system:
            partitions = system.router.partitions()
            for query in trace:
                plan = system.plan_query(query)
                for shard, reason in plan.skipped.items():
                    ghost = brute_force_answers(partitions[shard], query)
                    assert not ghost, (
                        f"shard {shard} pruned (reason {reason!r}) but owns "
                        f"answers {sorted(map(str, ghost))} for query "
                        f"{query.query_id} ({query.query_type.value})"
                    )
                # and the planned run agrees with whole-dataset ground truth
                report = system.run_query(query)
                expected = brute_force_answers(dataset, query)
                assert report.answer == expected

    @COMMON_SETTINGS
    @given(seed=st.integers(0, 2**16), num_shards=st.integers(2, 4))
    def test_plans_partition_the_shard_set(self, seed, num_shards):
        dataset = make_dataset(seed, 9)
        config = GCConfig(num_shards=num_shards, scatter_mode="short-circuit")
        trace = generate_trace(dataset, 8, skew="uniform",
                               query_type="mixed", seed=seed + 1)
        with ShardedGraphCacheSystem(dataset, config) as system:
            for query in trace:
                plan = system.plan_query(query)
                targets, skipped = set(plan.targets), set(plan.skipped)
                assert not (targets & skipped)
                assert targets | skipped == set(range(num_shards))

    def test_all_shards_pruned_yields_sound_empty_answer(self):
        """A query no shard can answer (unknown label) short-circuits to an
        empty answer without scattering anywhere — matching ground truth."""
        dataset = molecule_dataset(12, min_vertices=6, max_vertices=12, rng=41)
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


class UnionWalkForbidden(Counter):
    """A union vector that fails the test if anything walks all its items."""

    def items(self):
        pytest.fail("planning walked a shard's whole union vector")


class TestPlanningCost:
    def test_planner_reads_the_union_only_at_the_query_keys(self):
        dataset = label_clustered_dataset(2, 6, rng=5)
        config = GCConfig(num_shards=2, scatter_mode="short-circuit")
        with ShardedGraphCacheSystem(dataset, config) as system:
            for summary in system.planner.summaries:
                summary.union_features = UnionWalkForbidden(summary.union_features)
            plans = [system.planner.plan(Query(graph.copy(), QueryType.SUBGRAPH))
                     for graph in dataset]
        # every subgraph target passed the union screen
        assert any(plan.skipped for plan in plans) and any(plan.targets for plan in plans)


class TestServedScatterMetrics:
    def test_plan_counts_are_visible_in_server_metrics(self):
        dataset = molecule_dataset(12, min_vertices=6, max_vertices=12, rng=41)
        config = GCConfig(cache_capacity=10, window_size=3,
                          num_shards=2, scatter_mode="short-circuit")
        with QueryServer(dataset, config, max_batch_size=2,
                         max_queue_depth=256) as server:
            client = RemoteGraphService.for_server(server)
            result = replay_trace(client, generate_trace(
                dataset, 10, skew="uniform", query_type="mixed", seed=3),
                num_threads=2)
            assert result.served == 10
            scatter = client.metrics().scatter
            planned = [summary.to_dict() for summary in server.system.planner.summaries]
        stats = scatter["stats"]
        assert scatter["mode"] == "short-circuit"
        assert scatter["hedging"] == {"hedges_issued": 0}
        assert stats["queries"] == 10
        assert stats["scattered_total"] + stats["skipped_total"] == 10 * 2
        assert sum(stats["skip_reasons"].values()) == stats["skipped_total"]
        assert scatter["summaries"] == planned
        assert sum(summary["num_graphs"] for summary in planned) == len(dataset)


class TestSummaryConsistency:
    def test_served_summaries_stay_the_build_of_their_partitions(self):
        dataset = make_dataset(17, 12)
        config = GCConfig(cache_capacity=6, window_size=3,
                          num_shards=3, scatter_mode="short-circuit")
        trace = generate_trace(dataset, 20, skew="zipfian",
                               query_type="mixed", seed=9)
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.run_queries(trace)
            partitions = system.router.partitions()
            extractor = system.planner.extractor
            assert system.planner.summaries == [
                ShardSummary.build(index, partition, extractor)
                for index, partition in enumerate(partitions)
            ]


    @COMMON_SETTINGS
    @given(seed=st.integers(0, 2**16), num_shards=st.integers(2, 4))
    def test_partition_vectors_bound_every_member_after_rebalance(self, seed, num_shards):
        dataset = make_dataset(seed, 10)
        num_shards = min(num_shards, len(dataset))
        router = ShardRouter(dataset, num_shards)
        extractor = PathFeatureExtractor(max_length=1)
        for index, partition in enumerate(router.partitions()):
            summary = ShardSummary.build(index, partition, extractor)
            assert summary.num_graphs == len(partition)
            for graph in partition:
                features = extractor.extract(graph)
                # union is an upper bound, common a lower bound, per member
                assert FeatureExtractor.multiset_contains(
                    summary.union_features, features)
                assert FeatureExtractor.multiset_contains(
                    features, summary.common_features)
                assert summary.min_vertices <= graph.num_vertices <= summary.max_vertices
                assert summary.min_edges <= graph.num_edges <= summary.max_edges
                assert set(graph.label_counts()) <= set(summary.label_set)

