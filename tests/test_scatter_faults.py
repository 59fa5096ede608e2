"""Fault injection: stale and corrupt shard summaries.

The planner's failure contract: a shard whose summary cannot be trusted
(explicitly stale, or corrupted out of band — the integrity seal no longer
matches the content) must be **scattered to anyway** — degraded to full
scatter for that shard, never silently dropping answers — and the event
must be visible as ``summary_fallbacks`` in the planner stats and the
server's ``/metrics``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import RemoteGraphService
from repro.graph import molecule_dataset
from repro.graph.graph import Graph
from repro.query_model import Query, QueryType
from repro.runtime.config import GCConfig
from repro.server import QueryServer
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

