"""Property-based tests: short-circuit scatter soundness and cost model.

Three families of properties lock the planner down:

* **Pruning soundness** — a shard the :class:`ScatterPlanner` skips must
  contribute *zero* answers under full scatter.  Checked against ground
  truth: every skipped shard's partition is brute-force verified with VF2
  (no summaries, no filter index involved) and must contain no answer.
* **Summary consistency** — the resident-key half of a summary tracks the
  shard cache exactly under arbitrary cache churn, and the partition-level vectors (union/common features,
  size envelope) bound every member graph — also after a router rebalance
  produced new partitions.
* **Cost monotonicity** — the admission cost estimate is monotone
  non-decreasing in the planned candidate count and in the per-test cost,
  and never negative; per-query shard costs only price planned targets.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.features.base import FeatureExtractor
from repro.features.paths import PathFeatureExtractor
from repro.graph import molecule_dataset
from repro.isomorphism.vf2 import VF2Matcher
from repro.query_model import Query, QueryType, exact_key
from repro.runtime.config import GCConfig
from repro.sharding import ScatterPlanner, ShardRouter, ShardSummary
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
                plan = system.plan_query(query, record=False)
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
                plan = system.plan_query(query, record=False)
                targets, skipped = set(plan.targets), set(plan.skipped)
                assert not (targets & skipped)
                assert targets | skipped == set(range(num_shards))
                assert set(plan.fallbacks) <= targets
                assert set(plan.exact_shards) <= targets


class TestSummaryConsistency:
    @COMMON_SETTINGS
    @given(seed=st.integers(0, 2**16), num_shards=st.integers(2, 3))
    def test_resident_keys_track_cache_churn(self, seed, num_shards):
        dataset = make_dataset(seed, 8)
        config = GCConfig(cache_capacity=6, window_size=2, num_shards=num_shards,
                          scatter_mode="short-circuit")
        trace = generate_trace(dataset, 20, skew="zipfian",
                               query_type="mixed", seed=seed + 3)
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.run_queries(list(trace))
            system._sync_summaries()
            for index, shard in enumerate(system.shards):
                entries = shard.cache.entries()
                expected = {exact_key(entry.graph, entry.query_type) for entry in entries}
                assert set(system.summaries[index].resident_keys) == expected
                assert system.summaries[index].usable()
                # one key: what the summary publishes is what the cache's own
                # exact screen files the entry under and what the planner
                # routes a fresh, equal pattern by
                for entry in entries:
                    again = Query(entry.graph.copy(), entry.query_type)
                    assert entry in shard.cache.query_index.exact_candidates(
                        again.graph, again.query_type)
                    plan = system.planner.plan(again, record=False)
                    assert index in plan.exact_shards or index in plan.skipped

    @COMMON_SETTINGS
    @given(seed=st.integers(0, 2**16), num_shards=st.integers(2, 4),
           policy=st.sampled_from(("hash", "round-robin", "size-balanced")))
    def test_partition_vectors_bound_every_member_after_rebalance(
            self, seed, num_shards, policy):
        dataset = make_dataset(seed, 10)
        num_shards = min(num_shards, len(dataset))
        router = ShardRouter(dataset, num_shards, "hash")
        router.rebalance(policy)
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


class TestCostModel:
    @COMMON_SETTINGS
    @given(c1=st.integers(0, 10_000), c2=st.integers(0, 10_000),
           cost1=st.floats(0, 1, allow_nan=False), cost2=st.floats(0, 1, allow_nan=False))
    def test_estimate_is_monotone_and_non_negative(self, c1, c2, cost1, cost2):
        lo_c, hi_c = sorted((c1, c2))
        lo_s, hi_s = sorted((cost1, cost2))
        assert ScatterPlanner.estimate_cost(lo_c, lo_s) >= 0.0
        # monotone in candidates at fixed per-test cost
        assert (ScatterPlanner.estimate_cost(lo_c, lo_s)
                <= ScatterPlanner.estimate_cost(hi_c, lo_s))
        # monotone in per-test cost at fixed candidates
        assert (ScatterPlanner.estimate_cost(lo_c, lo_s)
                <= ScatterPlanner.estimate_cost(lo_c, hi_s))
        # negative inputs are clamped, not propagated
        assert ScatterPlanner.estimate_cost(-5, -1.0) == 0.0

    @COMMON_SETTINGS
    @given(seed=st.integers(0, 2**16), num_shards=st.integers(2, 4))
    def test_shard_costs_price_only_planned_targets(self, seed, num_shards):
        dataset = make_dataset(seed, 9)
        config = GCConfig(num_shards=num_shards, scatter_mode="short-circuit")
        trace = generate_trace(dataset, 6, skew="uniform",
                               query_type="mixed", seed=seed + 7)
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.run_queries(list(trace)[:3])  # observe some real costs
            for query in trace:
                plan = system.plan_query(query, record=False)
                costs = system.estimate_shard_costs(query)
                assert set(costs) == set(plan.targets)
                assert all(cost >= 0.0 for cost in costs.values())


class TestRouterShrinkRegression:
    """Satellite fix: a rebalance onto a shrunken dataset must fail clearly."""

    def test_rebalance_below_shard_count_raises_clearly(self):
        dataset = make_dataset(5, 8)
        router = ShardRouter(dataset, 4, "hash")
        before = router.assignment()
        with pytest.raises(ConfigurationError, match="shrank to 3"):
            router.rebalance("hash", dataset=dataset[:3])
        # the failed plan left the previous assignment fully intact
        assert router.assignment() == before
        assert router.dataset == dataset

    def test_rebalance_onto_empty_dataset_raises(self):
        dataset = make_dataset(6, 4)
        router = ShardRouter(dataset, 2, "round-robin")
        with pytest.raises(ConfigurationError, match="empty dataset"):
            router.rebalance("round-robin", dataset=[])

    def test_rebalance_with_grown_dataset_routes_everything(self):
        dataset = make_dataset(7, 4)
        router = ShardRouter(dataset, 2, "hash")
        grown = dataset + make_dataset(8, 3)
        for position, graph in enumerate(grown):
            graph.graph_id = f"g{position}"  # keep ids unique across both halves
        moves = router.rebalance("size-balanced", dataset=grown)
        assignment = router.assignment()
        assert set(assignment) == {graph.graph_id for graph in grown}
        assert all(partition for partition in router.partitions())
        # every new graph appears in the move plan (from virtual shard -1)
        new_ids = {graph.graph_id for graph in grown[len(dataset):]}
        assert new_ids <= set(moves)
        assert all(moves[graph_id][0] == -1 for graph_id in new_ids)

    def test_rebalance_reports_removed_graphs(self):
        dataset = make_dataset(9, 6)
        for position, graph in enumerate(dataset):
            graph.graph_id = f"r{position}"
        router = ShardRouter(dataset, 2, "round-robin")
        shrunk = dataset[:4]
        moves = router.rebalance("round-robin", dataset=shrunk)
        removed = {graph.graph_id for graph in dataset[4:]}
        assert removed <= set(moves)
        assert all(moves[graph_id][1] == -1 for graph_id in removed)
        assert set(router.assignment()) == {graph.graph_id for graph in shrunk}
