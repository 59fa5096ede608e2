"""The concurrency model: one thread of control per query.

Inside one process a query runs start to finish on the thread that submitted
it; parallelism comes only from shards (the scatter pool's one slot per shard,
and worker processes).  This file pins that rule:

(i)   no verify / query-stream / service pool thread ever exists, every
      sub-iso test runs on the submitting thread (the caller, or the
      batcher's dispatcher), thread shards own exactly one pool thread
      each, and a shard runs each query planned onto it once;
(ii)  a batch keeps submission order through the batcher, in the answers and
      in the statistics records;
(iii) the batch entry point (``run_batch``) answers identically on all three
      shard surfaces, and unsharded it *is* the sequential trajectory;
(iv)  the removed knobs fail loudly instead of being ignored;
(v)   cache admission is part of the query: the offer that fills the window
      runs replacement on the submitting thread
      (caller, dispatcher or scatter slot) and returns the eviction report;
(vi)  a process-shard coordinator adds nothing to that: its hop to a worker is
      a blocking call on the scatter slot that needs the answer, so it runs no
      thread but the ``gc-shard*`` slots, creates no event loop, fetches one
      ``/describe`` per shard per metrics row, and leaves no socket behind a
      worker it retired (respawn) or stopped (``close()``).
"""

from __future__ import annotations

import asyncio
import os
import threading

import pytest

from repro.api import LocalGraphService, MetricsSnapshot, RemoteGraphService
from repro.cache import GraphCache
from repro.graph import molecule_dataset
from repro.isomorphism.vf2 import VF2Matcher
from repro.methods import DirectSIMethod
from repro.query_model import Query
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer, RequestBatcher
from repro.sharding import ShardedGraphCacheSystem
from repro.workload import generate_trace, replay_trace
from tests.differential import run_on_threads
from tests.gated import GatedDispatcher

#: Thread names of the pools and threads this repository used to run (an
#: executor names its threads ``<prefix>_<n>``; ``gc-query-server`` is the
#: HTTP accept loop).
RETIRED_POOLS = ("gc-verify_", "gc-query_", "gc-service_", "gc-cache-maintenance")


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(16, min_vertices=7, max_vertices=13, rng=77)


@pytest.fixture(scope="module")
def trace(dataset):
    return generate_trace(dataset, 60, skew="zipfian", query_type="mixed", seed=13)


def clones(trace) -> list[Query]:
    return [Query(graph=q.graph.copy(), query_type=q.query_type) for q in trace]


def config(**overrides) -> GCConfig:
    # LRU: the cache trajectory does not depend on measured seconds
    return GCConfig(cache_capacity=25, window_size=5, replacement_policy="LRU",
                    **overrides)


class WhereMatcher(VF2Matcher):
    """VF2 that remembers the name of every thread a sub-iso test ran on."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: set[str] = set()

    def find_embedding(self, query, target):
        self.threads.add(threading.current_thread().name)
        return super().find_embedding(query, target)

    def matches(self, graph, others, graph_is_pattern, screened=False):
        self.threads.add(threading.current_thread().name)
        return super().matches(graph, others, graph_is_pattern, screened)


def live_threads(prefixes) -> list[str]:
    return sorted(thread.name for thread in threading.enumerate()
                  if thread.name.startswith(tuple(prefixes)))


def admitting_threads(caches) -> list[str]:
    """Wrap every cache's replacement round; the list names the thread of
    each round, in order."""
    names: list[str] = []
    for cache in caches:
        def replacing(*args, _replace=cache.policy.update_cache_items):
            names.append(threading.current_thread().name)
            return _replace(*args)
        cache.policy.update_cache_items = replacing
    return names


class TestNoPoolInsideOneProcess:
    def test_engine_runs_on_the_calling_thread(self, dataset, trace):
        matcher = WhereMatcher()
        me = threading.current_thread().name
        with GraphCacheSystem(dataset, config(),
                              method=DirectSIMethod(verifier=matcher)) as system:
            system.run_batch(clones(trace)[:25])
            for query in clones(trace)[25:50]:
                system.run_query(query)
            assert live_threads(RETIRED_POOLS) == []
        assert matcher.threads == {me}

    def test_local_service_batch_runs_on_the_calling_thread(self, dataset, trace):
        matcher = WhereMatcher()
        me = threading.current_thread().name
        with LocalGraphService(dataset, config(),
                               method=DirectSIMethod(verifier=matcher)) as service:
            assert service.run_batch(clones(trace)[:50]).ok
            assert live_threads(RETIRED_POOLS) == []
        assert matcher.threads == {me}

    def test_served_queries_run_on_the_dispatcher_thread(self, dataset):
        matcher = WhereMatcher()
        trace = generate_trace(dataset, 50, skew="zipfian", query_type="mixed", seed=14)
        with QueryServer(dataset, config(), method=DirectSIMethod(verifier=matcher),
                         max_batch_size=4, max_queue_depth=256) as server:
            result = replay_trace(RemoteGraphService.for_server(server), trace,
                                  num_threads=4)
            assert result.served == 50
            assert server.batcher.stats().largest_batch > 1
            assert live_threads(RETIRED_POOLS) == []
        assert matcher.threads == {"gc-request-batcher"}

    def test_thread_shards_own_one_pool_thread_each(self, dataset, trace):
        with ShardedGraphCacheSystem(dataset, config(num_shards=2)) as system:
            system.run_batch(clones(trace)[:50])
            assert len(live_threads(["gc-shard"])) == system.num_shards == 2
            assert live_threads(RETIRED_POOLS) == []

    def test_one_attempt_per_shard_under_concurrent_callers(self, dataset, trace):
        """Four callers, two shards: each shard runs each query planned onto it
        exactly once, on a scatter pool of exactly ``num_shards`` slots."""
        queries = clones(trace)[:40]
        with ShardedGraphCacheSystem(dataset, config(num_shards=2)) as system:
            calls = []
            for index, shard in enumerate(system.shards):
                def recording(query, *args, _index=index, _run=shard.run_query):
                    calls.append((_index, query.query_id))
                    return _run(query, *args)
                shard.run_query = recording
            run_on_threads(system, queries, threads=4)
            assert len(live_threads(["gc-shard"])) == system.num_shards == 2
        assert sorted(calls) == sorted((shard, query.query_id)
                                       for query in queries for shard in (0, 1))


class TestAdmissionOnTheQuerysThread:
    def test_offer_that_fills_the_window_returns_the_report(self, trace):
        cache = GraphCache(capacity=10, window_size=3)
        names = admitting_threads([cache])
        reports = [cache.offer(query, set(), observed_test_cost=0.0)
                   for query in clones(trace)[:6]]
        assert [report is not None for report in reports] == [False, False, True] * 2
        assert [report.num_admitted for report in reports[2::3]] == [3, 3]
        assert len(cache) == 6
        assert names == [threading.current_thread().name] * 2

    def test_replacement_runs_on_the_callers_thread(self, dataset, trace):
        with GraphCacheSystem(dataset, config()) as system:
            names = admitting_threads(system.all_caches())
            system.run_batch(clones(trace)[:25])
            for query in clones(trace)[25:50]:
                system.run_query(query)
        assert names, "the window never filled"
        assert set(names) == {threading.current_thread().name}

    def test_replacement_runs_on_the_dispatcher_thread(self, dataset):
        trace = generate_trace(dataset, 50, skew="zipfian", query_type="mixed", seed=14)
        with QueryServer(dataset, config(), max_batch_size=4) as server:
            names = admitting_threads(server.system.all_caches())
            result = replay_trace(RemoteGraphService.for_server(server), trace,
                                  num_threads=4)
            assert result.served == 50
            assert live_threads(RETIRED_POOLS) == []
        assert names, "the window never filled"
        assert set(names) == {"gc-request-batcher"}

    def test_replacement_runs_on_the_shards_scatter_slot(self, dataset, trace):
        with ShardedGraphCacheSystem(dataset, config(num_shards=2)) as system:
            names = admitting_threads(system.all_caches())
            system.run_batch(clones(trace)[:30])
            for query in clones(trace)[30:]:
                system.run_query(query)
            assert live_threads(RETIRED_POOLS) == []
        assert names, "the window never filled"
        assert set(names) <= {"gc-shard_0", "gc-shard_1"}


class TestBatchKeepsSubmissionOrder:
    def test_batch_of_four_through_the_batcher(self, dataset, trace):
        plug, *queries = clones(trace)[:5]
        with GraphCacheSystem(dataset, config()) as system:
            executed = []
            run_query = system.run_query

            def recording_run_query(query, *args):
                executed.append(query.query_id)
                return run_query(query, *args)

            system.run_query = recording_run_query
            # four queries queue behind a held dispatcher: the next batch is them
            gate = GatedDispatcher(system)
            batcher = RequestBatcher(system, max_batch_size=4)
            try:
                first = gate.plug(batcher, plug)
                futures = [batcher.submit(query) for query in queries]
                gate.release()
                first.result(timeout=30)
                served = [future.result(timeout=30) for future in futures]
            finally:
                batcher.close()
            ids = [query.query_id for query in queries]
            assert [len(batch) for batch in gate.batches] == [1, 4]
            assert [item.batch_size for item in served] == [4] * 4
            assert [item.report.query.query_id for item in served] == ids
            assert executed == [plug.query_id, *ids]


class TestOneBatchEntryPoint:
    def test_same_answers_on_every_shard_surface(self, dataset, trace):
        def answers(system, queries):
            reports = system.run_batch(queries)
            assert [r.query.query_id for r in reports] == [q.query_id for q in queries]
            return [frozenset(report.answer) for report in reports]

        with GraphCacheSystem(dataset, config()) as system:
            unsharded = answers(system, clones(trace))
            batch_hits = system.aggregate()
        with GraphCacheSystem(dataset, config()) as system:
            in_order = [frozenset(r.answer) for r in system.run_queries(clones(trace))]
            loop_hits = system.aggregate()
        assert unsharded == in_order
        # unsharded, the batch *is* the sequential trajectory
        for field in ("num_queries", "num_hits", "num_exact_hits", "num_sub_hits",
                      "num_super_hits", "total_dataset_tests", "total_probe_tests"):
            assert getattr(batch_hits, field) == getattr(loop_hits, field), field
        with ShardedGraphCacheSystem(dataset, config(num_shards=2)) as system:
            assert answers(system, clones(trace)) == unsharded
        with ShardedGraphCacheSystem(
                dataset, config(num_shards=2, shard_backend="process")) as system:
            assert answers(system, clones(trace)) == unsharded


    def test_each_shard_receives_its_share_of_a_batch_at_once(self, dataset, trace):
        """Share-at-once scatter: one ``run_batch`` call per shard per batch."""
        with ShardedGraphCacheSystem(dataset, config(num_shards=2)) as system:
            shares: list[tuple[int, int]] = []
            for index, shard in enumerate(system.shards):
                def recording(queries, *args, _index=index, _run=shard.run_batch):
                    shares.append((_index, len(queries)))
                    return _run(queries, *args)
                shard.run_batch = recording
            system.run_batch(clones(trace))
        assert sorted(shares) == [(0, len(trace)), (1, len(trace))]


def socket_inodes() -> set[str]:
    """Inode of every socket this process holds open (``/proc/self/fd``)."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    return inodes


def sockets_to(port: int) -> int:
    """How many of this process's TCP sockets are connected to ``port``."""
    mine = socket_inodes()
    with open("/proc/net/tcp", encoding="ascii") as table:
        rows = [line.split() for line in table.readlines()[1:]]
    return sum(1 for row in rows
               if int(row[2].rsplit(":", 1)[1], 16) == port and row[9] in mine)


class TestProcessShardCoordinatorCensus:
    def process_system(self, dataset, **overrides):
        return ShardedGraphCacheSystem(
            dataset, config(num_shards=2, shard_backend="process", **overrides))

    def test_only_the_scatter_slots_run_and_describe_is_fetched_once(
            self, dataset, trace, monkeypatch):
        loops = []
        loop_init = asyncio.BaseEventLoop.__init__
        monkeypatch.setattr(asyncio.BaseEventLoop, "__init__",
                            lambda self: (loops.append(self), loop_init(self))[1])
        before = set(threading.enumerate())
        with self.process_system(dataset) as system:
            system.run_batch(clones(trace))
            started = sorted(thread.name
                             for thread in set(threading.enumerate()) - before)
            assert 1 <= len(started) <= system.num_shards
            assert all(name.startswith("gc-shard") for name in started), started

            calls = []
            for shard in system.shards:
                describe, index = shard.remote_describe, shard.index
                shard.remote_describe = (lambda describe=describe, index=index:
                                         (calls.append(index), describe())[1])
            rows = system.describe_shards()
            assert sorted(calls) == [0, 1]  # one round trip per shard, not three
            assert all(row["index_memory_bytes"] > 0 and row["cache"]["population"] > 0
                       for row in rows)
            snapshot = MetricsSnapshot.from_system(system)  # what a /metrics scrape does
            assert sorted(calls) == [0, 0, 1, 1]
            assert snapshot.shards == rows
        assert loops == []

    def test_no_socket_outlives_a_stopped_or_retired_worker(self, dataset, trace):
        baseline = len(socket_inodes())
        with self.process_system(dataset) as system:
            # two callers scatter at once: one worker is reached from both
            # scatter slots, each on its own connection
            run_on_threads(system, clones(trace)[:30], threads=2)
            system.describe_shards()  # an observability call from a non-pool thread
            backend = system._process_backend
            client = backend.clients[0]
            # the client outlives a respawn: read the retired worker's port now
            retired_port = client.port
            # ≤ one per scatter slot
            assert 1 <= sockets_to(retired_port) <= system.num_shards
            assert sockets_to(retired_port) + sockets_to(backend.clients[1].port) \
                == len(socket_inodes()) - baseline
            client.process.terminate()
            client.process.join(timeout=10)
            reports = system.run_batch(clones(trace)[30:])
            assert len(reports) == len(trace) - 30
            assert backend.respawns_performed == 1
            assert client.port != retired_port
            assert sockets_to(retired_port) == 0
            assert sockets_to(client.port) >= 1
        assert len(socket_inodes()) <= baseline


class TestRemovedKnobsFailLoudly:
    @pytest.mark.parametrize("field", ("verify_threads", "max_workers", "scatter_hedge",
                                       "hedge_delay_seconds", "verifier",
                                       "async_maintenance", "admission_mode",
                                       "trace_buffer_size", "min_tests_to_admit",
                                       "max_sub_hits", "max_super_hits",
                                       "cache_memory_budget_bytes", "enable_sub_case",
                                       "enable_super_case", "shard_policy",
                                       "shard_respawn_limit", "measure_baseline"))
    def test_config_rejects_the_removed_fields(self, field):
        with pytest.raises(TypeError, match=field):
            GCConfig(**{field: 2})
        with pytest.raises(TypeError, match=field):
            GCConfig.from_dict({**GCConfig().to_dict(), field: 1})
