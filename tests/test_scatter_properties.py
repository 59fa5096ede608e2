"""Property-based tests: short-circuit scatter soundness.

Two families of properties lock the planner down:

* **Pruning soundness** — a shard the :class:`ScatterPlanner` skips must
  contribute *zero* answers under full scatter.  Checked against ground
  truth: every skipped shard's partition is brute-force verified with VF2
  (no summaries, no filter index involved) and must contain no answer.
* **Summary consistency** — the partition-level vectors (union/common
  features, size envelope) bound every member graph of a hash-routed
  partition.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features.base import FeatureExtractor
from repro.features.paths import PathFeatureExtractor
from repro.graph import molecule_dataset
from repro.isomorphism.vf2 import VF2Matcher
from repro.query_model import QueryType
from repro.runtime.config import GCConfig
from repro.sharding import ShardRouter, ShardSummary
from repro.sharding.system import ShardedGraphCacheSystem
from repro.workload import generate_trace

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
                assert set(plan.fallbacks) <= targets


class TestSummaryConsistency:
    @COMMON_SETTINGS
    @given(seed=st.integers(0, 2**16), num_shards=st.integers(2, 4))
    def test_partition_vectors_bound_every_member_after_rebalance(self, seed, num_shards):
        dataset = make_dataset(seed, 10)
        num_shards = min(num_shards, len(dataset))
        router = ShardRouter(dataset, num_shards)
        extractor = PathFeatureExtractor(max_length=1)
        for index, partition in enumerate(router.partitions()):
            summary = ShardSummary.build(index, partition, extractor)
            assert summary.usable()
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

