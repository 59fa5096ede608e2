"""Concurrency stress: hammer a 4-shard system from 8 threads.

Eight client threads pull queries off a shared cursor and fire them at one
:class:`ShardedGraphCacheSystem` (4 shards, each admitting and replacing on
the scatter slot that runs its share).  The assertions:

* **no deadlock** — every thread finishes within a hard timeout;
* **no dropped queries** — every query produces a report, and every report
  carries the correct answer (checked against a fresh sequential reference);
* **deterministic merged ordering** — ``run_batch`` returns reports in
  submission order, every shard executes its share in that order, and the
  answers are identical on repeated runs.
"""

from __future__ import annotations

import pytest

from repro.graph import molecule_dataset
from repro.query_model import Query
from repro.runtime import GCConfig, GraphCacheSystem
from repro.sharding import ShardedGraphCacheSystem
from repro.workload import generate_trace
from tests.differential import assert_booked_exactly_once, run_on_threads

NUM_SHARDS = 4
NUM_THREADS = 8
JOIN_TIMEOUT_SECONDS = 120.0


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(20, min_vertices=6, max_vertices=12, rng=5)


@pytest.fixture(scope="module")
def trace(dataset):
    return generate_trace(dataset, 160, skew="zipfian", query_type="mixed", seed=3)


@pytest.fixture(scope="module")
def reference_answers(dataset, trace):
    with GraphCacheSystem(dataset, GCConfig(cache_capacity=20, window_size=5)) as system:
        clones = [Query(graph=q.graph.copy(), query_type=q.query_type) for q in trace]
        return [frozenset(report.answer) for report in system.run_queries(clones)]


def _clones(trace):
    return [Query(graph=q.graph.copy(), query_type=q.query_type) for q in trace]


def test_hammered_shards_no_deadlock_no_drops(dataset, trace, reference_answers):
    config = GCConfig(cache_capacity=20, window_size=5, num_shards=NUM_SHARDS)
    queries = _clones(trace)
    with ShardedGraphCacheSystem(dataset, config) as system:
        # no deadlock, no dropped or failed query: the helper asserts all three
        reports = run_on_threads(system, queries, NUM_THREADS,
                                 timeout=JOIN_TIMEOUT_SECONDS)
        # every answer is correct despite arbitrary interleaving...
        assert [frozenset(report.answer) for report in reports] == reference_answers
        # ...and the merged statistics booked every query exactly once
        assert_booked_exactly_once(system, reports, queries)


def test_concurrent_batches_keep_submission_order(dataset, trace, reference_answers):
    """run_batch merges deterministically: report i belongs to query i and
    answers are identical across independent runs."""
    config = GCConfig(cache_capacity=20, window_size=5, num_shards=NUM_SHARDS)
    runs = []
    for _ in range(2):
        queries = _clones(trace)
        with ShardedGraphCacheSystem(dataset, config) as system:
            executed = {index: [] for index in range(NUM_SHARDS)}
            for index, shard in enumerate(system.shards):
                def traced(query, *args, _log=executed[index], _run=shard.run_query):
                    _log.append(query.query_id)
                    return _run(query, *args)
                shard.run_query = traced
            reports = system.run_batch(queries)
            ids = [query.query_id for query in queries]
            assert [report.query.query_id for report in reports] == ids
            # full scatter: every shard executed the whole batch in submission order
            assert all(log == ids for log in executed.values())
            runs.append([frozenset(report.answer) for report in reports])
    assert runs[0] == runs[1] == reference_answers
