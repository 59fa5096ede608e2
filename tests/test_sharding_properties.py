"""Property-based tests: ShardRouter invariants.

The scatter-gather engine's correctness argument reduces to one routing
property — **every dataset graph is routed to exactly one shard** (the
partitioning is total and disjoint, and no shard is empty).  Hypothesis
drives it across random datasets and shard counts; determinism (same inputs
→ same assignment) is checked explicitly because the hash route must not
depend on Python's per-process hash salt.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph import molecule_dataset
from repro.sharding import ShardRouter, stable_graph_id_hash


def make_dataset(seed: int, size: int):
    return molecule_dataset(size, min_vertices=4, max_vertices=12, rng=seed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), size=st.integers(1, 24),
       num_shards=st.integers(1, 8))
def test_routing_is_total_and_disjoint(seed, size, num_shards):
    dataset = make_dataset(seed, size)
    num_shards = min(num_shards, len(dataset))
    router = ShardRouter(dataset, num_shards)

    # total: every graph id assigned, to a valid shard
    assignment = router.assignment()
    assert set(assignment) == {graph.graph_id for graph in dataset}
    assert all(0 <= shard < num_shards for shard in assignment.values())

    # disjoint + covering: partitions are a set partition of the dataset
    partitions = router.partitions()
    assert len(partitions) == num_shards
    seen: set = set()
    for shard, partition in enumerate(partitions):
        ids = {graph.graph_id for graph in partition}
        assert not (ids & seen), "a graph appears in two shards"
        seen |= ids
        assert all(assignment[graph.graph_id] == shard for graph in partition)
    assert seen == set(assignment)

    # no shard is empty (every shard must be able to build a system)
    assert all(partition for partition in partitions)
    assert router.shard_sizes() == [len(partition) for partition in partitions]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), size=st.integers(1, 20),
       num_shards=st.integers(1, 6))
def test_routing_is_deterministic(seed, size, num_shards):
    """Two routers over the same inputs agree exactly (no hash salt leaks)."""
    dataset = make_dataset(seed, size)
    num_shards = min(num_shards, len(dataset))
    first = ShardRouter(dataset, num_shards)
    second = ShardRouter(make_dataset(seed, size), num_shards)
    assert first.assignment() == second.assignment()


def test_hash_collisions_leave_no_shard_empty():
    """Ids that all hash to one shard still fill every shard: the router repairs."""
    from repro.graph import Graph

    ids = [i for i in range(200) if stable_graph_id_hash(i) % 3 == 0][:4]
    router = ShardRouter([Graph(graph_id=i) for i in ids], 3)
    assert all(size >= 1 for size in router.shard_sizes())
    assert sum(router.shard_sizes()) == 4


def test_stable_hash_is_process_independent_reference_values():
    """Pin concrete values: crc32-based routing cannot drift silently."""
    assert stable_graph_id_hash("mol-1") == stable_graph_id_hash("mol-1")
    assert stable_graph_id_hash(7) == stable_graph_id_hash("7")
    rng = random.Random(1)
    ids = [rng.randrange(10**6) for _ in range(100)]
    # spread: 4-way split of 100 random ids leaves no shard empty
    shards = {stable_graph_id_hash(i) % 4 for i in ids}
    assert shards == {0, 1, 2, 3}


class TestRouterValidation:
    def test_rejects_more_shards_than_graphs(self):
        dataset = make_dataset(1, 3)
        with pytest.raises(ConfigurationError):
            ShardRouter(dataset, 4)

    def test_rejects_empty_dataset_and_bad_counts(self):
        with pytest.raises(ConfigurationError):
            ShardRouter([], 1)
        with pytest.raises(ConfigurationError):
            ShardRouter(make_dataset(1, 2), 0)
