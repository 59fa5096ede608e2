"""Differential correctness: short-circuit scatter ≡ full scatter ≡ direct.

The acceptance property of the short-circuit PR: on a ≥200-query seeded
mixed sub/supergraph workload, the scatter-gather engine with
``scatter_mode="short-circuit"`` (summary-driven shard pruning) returns
answer sets byte-identical to direct execution, the cached single system,
full scatter at the same shard count, and the served path — while actually
pruning (mean fan-out strictly below the shard count on this workload).
On a mismatch the harness's :func:`diff_short_circuit` names the shard
whose pruning was unsound, which the last test locks in on a synthetic
mismatch.
"""

from __future__ import annotations

import pytest

from repro.graph import molecule_dataset
from repro.workload import generate_trace

from tests.differential import (
    ArmResult,
    assert_answers_equal,
    diff_short_circuit,
    run_cached,
    run_direct,
    run_served,
    run_sharded,
)

SHARD_COUNTS = (2, 4)


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


class TestShortCircuitEquivalence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_short_circuit_matches_direct_cached_and_full(self, dataset, workload,
                                                          direct, cached, num_shards):
        full = run_sharded(dataset, workload, num_shards)
        short = run_sharded(dataset, workload, num_shards,
                            scatter_mode="short-circuit")
        assert_answers_equal(direct, short)
        assert_answers_equal(cached, short)
        assert_answers_equal(full, short)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_short_circuit_actually_prunes(self, dataset, workload, num_shards):
        """On the zipfian mixed trace the planner must skip real work:
        mean fan-out strictly below the shard count, with recorded reasons."""
        short = run_sharded(dataset, workload, num_shards,
                            scatter_mode="short-circuit")
        stats = short.scatter_stats
        assert stats is not None and stats["queries"] == len(workload)
        assert 0.0 < short.mean_fanout < num_shards
        assert stats["skipped_total"] > 0
        assert sum(stats["skip_reasons"].values()) == stats["skipped_total"]
        # every plan is consistent: targets + skipped partition the shards
        for plan in short.plans:
            targets = set(plan["targets"])
            skipped = {int(shard) for shard in plan["skipped"]}
            assert not (targets & skipped)
            assert targets | skipped == set(range(num_shards))

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_concurrent_short_circuit_matches_direct(self, dataset, workload,
                                                     direct, num_shards):
        """Four caller threads + shard pruning must not change answers."""
        short = run_sharded(dataset, workload, num_shards,
                            caller_threads=4, scatter_mode="short-circuit")
        assert_answers_equal(direct, short)

    def test_short_circuit_never_creates_work(self, dataset, workload, direct):
        """Pruning can only remove candidate universes, never add them."""
        short = run_sharded(dataset, workload, 4, scatter_mode="short-circuit")
        assert short.aggregate.total_baseline_tests <= direct.aggregate.total_baseline_tests
        assert short.aggregate.total_dataset_tests <= direct.aggregate.total_dataset_tests


class TestServedShortCircuit:
    def test_served_short_circuit_matches_direct(self, dataset, workload, direct):
        """The full production path: sharded + short-circuit + batching +
        client concurrency behind the HTTP server."""
        served = run_served(dataset, workload, num_shards=2, num_threads=4,
                            max_batch_size=4, scatter_mode="short-circuit")
        assert_answers_equal(direct, served)

    def test_served_full_scatter_matches_direct(self, dataset, workload, direct):
        """The same served path without pruning: the reference the
        short-circuit arm above must agree with."""
        served = run_served(dataset, workload, num_shards=2, num_threads=4,
                            max_batch_size=4, scatter_mode="full")
        assert_answers_equal(direct, served)


class TestShortCircuitBlameDiff:
    def _arm(self, answers, plans, shard_of, name="sc"):
        return ArmResult(name=name, answers=answers, plans=plans, shard_of=shard_of)

    def test_equal_arms_produce_no_diff(self):
        reference = ArmResult(name="ref", answers=[frozenset({"a", "b"})])
        short = self._arm([frozenset({"a", "b"})],
                          plans=[{"targets": [0], "skipped": {"1": "label-gap"}}],
                          shard_of={"a": 0, "b": 0})
        assert diff_short_circuit(reference, short) is None

    def test_unsound_pruning_names_the_shard_and_reason(self):
        reference = ArmResult(name="ref", answers=[frozenset({"a", "b"})])
        # "b" lives on shard 1, which the plan pruned: unsound
        short = self._arm([frozenset({"a"})],
                          plans=[{"targets": [0], "skipped": {"1": "feature-gap"}}],
                          shard_of={"a": 0, "b": 1})
        diff = diff_short_circuit(reference, short)
        assert diff is not None
        assert "shard 1 was pruned" in diff
        assert "'feature-gap'" in diff
        assert "UNSOUND PRUNING" in diff

    def test_non_pruning_loss_is_distinguished(self):
        reference = ArmResult(name="ref", answers=[frozenset({"a", "b"})])
        # "b" lives on shard 0 which WAS scattered to: not a planner bug
        short = self._arm([frozenset({"a"})],
                          plans=[{"targets": [0, 1], "skipped": {}}],
                          shard_of={"a": 0, "b": 0})
        diff = diff_short_circuit(reference, short)
        assert diff is not None
        assert "merge/execution bug, not pruning" in diff
        assert "UNSOUND" not in diff
