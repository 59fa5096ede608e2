"""Differential correctness: sharded ≡ unsharded ≡ direct ≡ served.

The acceptance property of the sharding PR: on a ≥200-query seeded mixed
sub/supergraph workload, the scatter-gather engine at 1, 2 and 4 shards
returns answer sets byte-identical to both the unsharded cached engine and
plain Method M execution — in-process (sequential and concurrent) and
through the HTTP server path.  Where the execution order is deterministic
(one shard, sequential serving) the hit/miss accounting must match exactly
as well, not just the answers.
"""

from __future__ import annotations

import json

import pytest

from repro.api.envelopes import QueryResponse
from repro.graph import molecule_dataset
from repro.workload import generate_trace

from tests.differential import (
    ArmResult,
    assert_answers_equal,
    assert_hit_counts_equal,
    diff_answers,
    run_cached,
    run_direct,
    run_served,
    run_sharded,
)

SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(16, min_vertices=7, max_vertices=13, rng=77)


@pytest.fixture(scope="module")
def workload(dataset):
    trace = generate_trace(dataset, 200, skew="zipfian", query_type="mixed", seed=13)
    assert len(trace) >= 200
    return trace


@pytest.fixture(scope="module")
def direct(dataset, workload):
    return run_direct(dataset, workload)


@pytest.fixture(scope="module")
def cached(dataset, workload):
    return run_cached(dataset, workload)


class TestInProcessEquivalence:
    def test_cached_matches_direct(self, direct, cached):
        assert_answers_equal(direct, cached)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sharded_matches_direct_and_cached(self, dataset, workload, direct,
                                               cached, num_shards):
        sharded = run_sharded(dataset, workload, num_shards)
        assert_answers_equal(direct, sharded)
        assert_answers_equal(cached, sharded)

    def test_single_shard_hit_accounting_is_identical(self, dataset, workload, cached):
        """sharded(1) is the cached engine plus a trivial merge: every hit,
        miss and sub-iso test count must survive the scatter-gather path."""
        sharded = run_sharded(dataset, workload, num_shards=1)
        assert_hit_counts_equal(cached, sharded)

    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_concurrent_sharded_matches_sequential(self, dataset, workload,
                                                   direct, num_shards):
        """Four caller threads scattering at once must not change answers."""
        concurrent = run_sharded(dataset, workload, num_shards, caller_threads=4)
        assert_answers_equal(direct, concurrent)

    @pytest.mark.parametrize("num_shards", (2, 4))
    def test_sharded_tests_never_exceed_direct(self, dataset, workload, direct,
                                               num_shards):
        """Sharding must not *create* verification work: summed per-shard
        dataset tests stay within the no-cache baseline."""
        sharded = run_sharded(dataset, workload, num_shards)
        assert sharded.aggregate.total_dataset_tests <= direct.aggregate.total_dataset_tests
        # and the candidate universe is conserved across the partitioning
        assert sharded.aggregate.total_baseline_tests == direct.aggregate.total_baseline_tests


class TestServedEquivalence:
    def test_sequential_serving_matches_cached_exactly(self, dataset, workload, cached):
        """One client thread + batch size 1 is fully deterministic: the
        served arm must reproduce answers *and* hit/miss accounting."""
        served = run_served(dataset, workload, num_shards=1,
                            num_threads=1, max_batch_size=1)
        assert_answers_equal(cached, served)
        assert_hit_counts_equal(cached, served)

    @pytest.mark.parametrize("num_shards", (1, 2, 4))
    def test_batched_concurrent_serving_matches_direct(self, dataset, workload,
                                                       direct, num_shards):
        """Answers are invariant under server batching, client concurrency
        and sharding combined — the full production path."""
        served = run_served(dataset, workload, num_shards=num_shards,
                            num_threads=4, max_batch_size=4)
        assert_answers_equal(direct, served)

    def test_every_served_response_is_strict_json(self, dataset, workload,
                                                  direct, monkeypatch):
        """A response body is JSON-native by construction (no ``json_safe``
        walk): every one the server sends encodes with ``allow_nan=False``."""
        sent: list[dict] = []
        to_wire = QueryResponse.to_wire

        def recording_to_wire(response):
            sent.append(to_wire(response))
            return sent[-1]

        monkeypatch.setattr(QueryResponse, "to_wire", recording_to_wire)
        served = run_served(dataset, workload, num_shards=2,
                            num_threads=4, max_batch_size=4)
        assert_answers_equal(direct, served)
        assert len(sent) == len(workload)
        for payload in sent:
            json.dumps(payload, allow_nan=False)
            assert payload["result"]["server"]["batch_size"] >= 1


class TestShardedFacadeConsistency:
    def test_warm_cache_keeps_merged_and_shard_stats_consistent(self, dataset, workload):
        """With reset_statistics=False the merged view and every per-shard
        view must agree on the query count (the /metrics invariant)."""
        from repro.runtime.config import GCConfig
        from repro.sharding import ShardedGraphCacheSystem

        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2)
        warmup = list(workload)[:20]
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.warm_cache(
                [q.graph.copy() for q in warmup], reset_statistics=False
            )
            snapshot = system.statistics.to_dict()
            assert snapshot["num_queries"] == len(warmup)
            assert all(
                shard["num_queries"] == len(warmup)
                for shard in snapshot["shards"].values()
            )
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.warm_cache([q.graph.copy() for q in warmup])  # default reset
            snapshot = system.statistics.to_dict()
            assert snapshot["num_queries"] == 0
            assert all(
                shard["num_queries"] == 0 for shard in snapshot["shards"].values()
            )
            # the caches themselves are warm
            assert all(len(cache) > 0 for cache in system.all_caches())


class TestMismatchDiff:
    def test_equal_arms_produce_no_diff(self):
        left = ArmResult(name="a", answers=[frozenset({1, 2}), frozenset()])
        right = ArmResult(name="b", answers=[frozenset({1, 2}), frozenset()])
        assert diff_answers(left, right) is None

    def test_diff_is_compact_and_names_offenders(self):
        reference = ArmResult(name="ref", answers=[frozenset({1, 2})] * 10)
        other = ArmResult(
            name="bad",
            answers=[frozenset({1, 2})] * 3
            + [frozenset({1}), frozenset({1, 2, 3})]
            + [frozenset({9})] * 5,
        )
        diff = diff_answers(reference, other, limit=3)
        assert diff is not None
        assert "7 of 10 queries" in diff
        assert "query #3" in diff and "missing from bad: [2]" in diff
        assert "query #4" in diff and "unexpected in bad: [3]" in diff
        # compact: only `limit` positions spelled out, the rest summarised
        assert diff.count("query #") == 3
        assert "and 4 more mismatching queries" in diff

    def test_length_mismatch_is_reported(self):
        reference = ArmResult(name="ref", answers=[frozenset({1})] * 3)
        other = ArmResult(name="short", answers=[frozenset({1})] * 2)
        diff = diff_answers(reference, other)
        assert diff is not None and "length mismatch" in diff
