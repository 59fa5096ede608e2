"""Differential correctness: process-sharded ≡ thread-sharded ≡ cached ≡ direct.

The acceptance property of the multiprocess backend: hosting every shard in
a spawned worker process behind the v2 envelope transport changes *nothing
observable*.  On a seeded mixed sub/supergraph workload the process-sharded
engine — sequential, concurrent, short-circuit-planned and served over
HTTP — returns answer sets byte-identical to plain Method M execution, and
at one shard reproduces the cached engine's hit/miss accounting exactly (the
full report really does survive the wire).

Worker-crash fault injection lives here too: a shard worker killed
mid-trace is respawned (once: ``process_backend.RESPAWN_LIMIT``) with zero
dropped or duplicated answers, and once that budget is spent the failure
surfaces as the typed, retryable ``shard-worker`` error — as does a live
worker's malformed reply, which spends no respawn.  Partitions travel
to workers as pickled graphs: a worker, first or respawned, holds exactly
its partition.
"""

from __future__ import annotations

import pytest

from repro.api.envelopes import ErrorEnvelope
from repro.api.remote import WireError
from repro.errors import ShardWorkerError
from repro.graph import Graph, molecule_dataset
from repro.methods import DirectSIMethod
from repro.runtime.config import GCConfig
from repro.runtime.system import GraphCacheSystem
from repro.sharding import ShardedGraphCacheSystem
from repro.sharding.process_backend import ProcessShardBackend
from repro.workload import generate_trace

from tests.differential import (
    assert_answers_equal,
    assert_hit_counts_equal,
    base_config,
    clone_queries,
    run_cached,
    run_direct,
    run_served,
    run_sharded,
)


class _DatasetEcho(DirectSIMethod):
    """Plain SI whose description lists the dataset it was built over."""

    def describe(self) -> dict:
        description = super().describe()
        description["dataset"] = [self._dataset[graph_id].to_dict()
                                  for graph_id in self.graph_ids()]
        return description


def dataset_echo() -> DirectSIMethod:
    """Module-level, so a spawned worker can unpickle it as its method factory."""
    return _DatasetEcho()


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(14, min_vertices=7, max_vertices=12, rng=177)


@pytest.fixture(scope="module")
def workload(dataset):
    return generate_trace(dataset, 120, skew="zipfian", query_type="mixed", seed=29)


@pytest.fixture(scope="module")
def direct(dataset, workload):
    return run_direct(dataset, workload)


@pytest.fixture(scope="module")
def cached(dataset, workload):
    return run_cached(dataset, workload)


class TestProcessShardedEquivalence:
    @pytest.mark.parametrize("num_shards", (1, 2))
    def test_process_sharded_matches_direct_and_cached(self, dataset, workload,
                                                       direct, cached, num_shards):
        process = run_sharded(dataset, workload, num_shards,
                              shard_backend="process")
        assert_answers_equal(direct, process)
        assert_answers_equal(cached, process)

    def test_single_process_shard_hit_accounting_is_identical(self, dataset,
                                                              workload, cached):
        """process-sharded(1) is the cached engine behind a pipe: every hit,
        miss and sub-iso test count must survive envelope serialisation."""
        process = run_sharded(dataset, workload, num_shards=1,
                              shard_backend="process")
        assert_hit_counts_equal(cached, process)

    def test_thread_and_process_backends_agree_exactly(self, dataset, workload):
        """Same shard count, same workload: the two backends must agree on
        answers *and* accounting — partitioning is identical, only the
        hosting differs."""
        thread = run_sharded(dataset, workload, num_shards=2)
        process = run_sharded(dataset, workload, num_shards=2,
                              shard_backend="process")
        assert_answers_equal(thread, process)
        assert_hit_counts_equal(thread, process)

    def test_concurrent_process_sharded_matches_direct(self, dataset, workload,
                                                       direct):
        """Four caller threads (4 in-flight envelopes per shard) must not
        change answers."""
        concurrent = run_sharded(dataset, workload, num_shards=2,
                                 caller_threads=4, shard_backend="process")
        assert_answers_equal(direct, concurrent)

    def test_short_circuit_process_sharded_matches_direct(self, dataset,
                                                          workload, direct):
        """Summary-driven shard pruning composes with process hosting (the
        planner runs coordinator-side; pruned workers never see the query)."""
        pruned = run_sharded(dataset, workload, num_shards=2,
                             scatter_mode="short-circuit",
                             shard_backend="process")
        assert_answers_equal(direct, pruned)
        assert pruned.mean_fanout <= 2.0

    def test_served_process_backend_matches_direct(self, dataset, workload,
                                                   direct):
        """The full production path: HTTP server → scatter → worker
        processes."""
        served = run_served(dataset, workload, num_shards=2,
                            num_threads=4, max_batch_size=4,
                            shard_backend="process")
        assert_answers_equal(direct, served)


#: What a merged report must agree on, query by query, across the backends:
#: the answer, the five journey sets, the hit-entry counts and the tests.
JOURNEY = ("answer", "method_candidates", "guaranteed_answers",
           "guaranteed_non_answers", "verified_candidates", "verified_answers")


def journey(report) -> dict:
    row = {name: frozenset(getattr(report, name)) for name in JOURNEY}
    row.update(exact_hit=report.exact_hit_entry is not None,
               sub_hits=len(report.sub_hit_entries),
               super_hits=len(report.super_hit_entries),
               dataset_tests=report.dataset_tests,
               probe_tests=report.probe_tests)
    return row


class TestWorkerReply:
    def test_every_merged_report_matches_thread_shards(self, dataset, workload):
        """A worker's reply is its report: per query, the merged report over
        2 process shards must equal the one over 2 thread shards."""
        rows = {}
        for backend in ("thread", "process"):
            config = base_config(num_shards=2, shard_backend=backend)
            with ShardedGraphCacheSystem(dataset, config) as system:
                reports = system.run_queries(clone_queries(workload)[:60])
            rows[backend] = [journey(report) for report in reports]
        assert sum(row["sub_hits"] + row["super_hits"] for row in rows["thread"])
        for position, (thread, process) in enumerate(zip(rows["thread"],
                                                         rows["process"])):
            assert thread == process, (position, thread, process)


class TestWorkerDataset:
    @staticmethod
    def assert_holds(backend: ProcessShardBackend, partition: list[Graph]) -> None:
        shipped = [Graph.from_dict(payload)
                   for payload in backend.clients[0].method.describe()["dataset"]]
        assert [(g.graph_id, g.name) for g in shipped] == [
            (g.graph_id, g.name) for g in partition]
        for received, sent in zip(shipped, partition):  # ids, labels, edge labels
            assert received.structural_equal(sent)

    def test_a_worker_holds_its_partition_first_and_after_respawn(self, dataset):
        mixed = Graph(graph_id="mixed", name="ring")
        mixed.add_vertices([(0, "C"), ("a", "N"), (2, "O"), ("b", "C")])
        for u, v, label in ((0, "a", "="), ("a", 2, None), (2, "b", "#"), ("b", 0, "-")):
            mixed.add_edge(u, v, label)
        partition = [*dataset[:4], mixed]
        partition[0].compiled().plan()  # a compiled form never travels
        backend = ProcessShardBackend([partition], GCConfig(), method_factory=dataset_echo)
        try:
            self.assert_holds(backend, partition)
            victim = backend.clients[0].process
            victim.terminate()
            victim.join(timeout=10)
            backend.clients[0].remote_describe()  # hits the dead worker: respawn
            assert backend.respawns_performed == 1
            self.assert_holds(backend, partition)
        finally:
            backend.close()


class TestProcessShardSnapshots:
    def test_snapshot_round_trip_across_backends(self, dataset, workload, tmp_path):
        """A snapshot written by process workers restores into a fresh
        process deployment (and counts entries symmetrically)."""
        path = tmp_path / "snap.json"
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.warm_cache(clone_queries(workload)[:30])
            saved = system.save_snapshot(path)
        assert saved > 0
        with ShardedGraphCacheSystem(dataset, config) as system:
            restored = system.restore_snapshot(path)
            assert restored == saved
            # the warm cache still answers correctly
            queries = clone_queries(workload)[:20]
            with GraphCacheSystem(dataset, GCConfig(cache_enabled=False)) as ref:
                expected = [frozenset(r.answer) for r in ref.run_queries(
                    clone_queries(workload)[:20])]
            got = [frozenset(r.answer) for r in system.run_queries(queries)]
            assert got == expected


class TestWorkerCrashRecovery:
    def test_mid_trace_crash_respawns_with_no_answer_loss(self, dataset, workload,
                                                          direct):
        """Kill one worker halfway through the trace: the coordinator must
        respawn it within budget and the full answer list must still match
        direct execution — nothing dropped, nothing duplicated."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        queries = clone_queries(workload)
        half = len(queries) // 2
        with ShardedGraphCacheSystem(dataset, config) as system:
            answers = [frozenset(r.answer)
                       for r in system.run_queries(queries[:half])]
            victim = system._process_backend.clients[0].process
            victim.terminate()
            victim.join(timeout=10)
            answers += [frozenset(r.answer)
                        for r in system.run_queries(queries[half:])]
            assert system._process_backend.respawns_performed == 1
        assert len(answers) == len(direct.answers)
        assert answers == direct.answers

    def test_crash_under_concurrent_batch_respawns_once(self, dataset, workload,
                                                        direct):
        """A dead worker fails many in-flight envelopes at once; only one
        respawn may be spent and only the failed queries re-issued."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        queries = clone_queries(workload)[:40]
        with ShardedGraphCacheSystem(dataset, config) as system:
            victim = system._process_backend.clients[1].process
            victim.terminate()
            victim.join(timeout=10)
            reports = system.run_batch(queries)
            assert system._process_backend.respawns_performed == 1
        answers = [frozenset(r.answer) for r in reports]
        assert answers == direct.answers[:40]

    def test_exhausted_respawn_budget_surfaces_typed_retryable_error(self, dataset,
                                                                     workload):
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        queries = clone_queries(workload)[:5]
        with ShardedGraphCacheSystem(dataset, config) as system:
            backend = system._process_backend
            first = backend.clients[0].process
            first.terminate()
            first.join(timeout=10)
            system.run_queries(queries)  # the first crash spends the one respawn
            assert backend.respawns_performed == 1
            replacement = backend.clients[0].process
            replacement.terminate()
            replacement.join(timeout=10)
            with pytest.raises(ShardWorkerError) as excinfo:
                system.run_queries(queries)
        assert excinfo.value.shard == 0
        # the taxonomy classifies it as a retryable 503 on the wire
        envelope = ErrorEnvelope.from_exception(excinfo.value)
        assert envelope.code == "shard-worker"
        assert envelope.http_status == 503
        assert envelope.retryable is True
        assert envelope.details.get("shard") == 0

    def test_a_replacement_that_fails_to_start_spends_the_budget(self, dataset, workload,
                                                                 monkeypatch):
        """A respawn whose handshake fails uses up the shard's budget: the
        next query gets the exhausted-budget error without a second spawn."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        queries = clone_queries(workload)[:5]
        with ShardedGraphCacheSystem(dataset, config) as system:
            backend = system._process_backend
            spawned = []
            start_process = backend._start_process

            def counted_start(index):
                spawned.append(index)
                return start_process(index)

            def failed_handshake(index, process, ready):
                ready.close()
                raise ShardWorkerError(index, "startup handshake timed out after 0s")

            monkeypatch.setattr(backend, "_start_process", counted_start)
            monkeypatch.setattr(backend, "_await_ready", failed_handshake)
            victim = backend.clients[0].process
            victim.terminate()
            victim.join(timeout=10)
            with pytest.raises(ShardWorkerError, match="handshake timed out"):
                system.run_queries(queries)
            with pytest.raises(ShardWorkerError, match="respawn budget exhausted"):
                system.run_queries(queries)
            assert spawned == [0]
            assert backend.respawns_performed == 0
            row = backend.liveness()[0]
            assert (row["respawns"], row["respawns_left"]) == (1, 0)


class TestLiveWorkerFailure:
    def test_a_live_worker_failure_is_typed_and_blames_its_shard(self, dataset, workload,
                                                                   monkeypatch):
        """A malformed reply from a worker that is still alive fails the query
        with the typed error naming the shard, the transport failure as its
        cause: no respawn is spent and the query is not sent again."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        with ShardedGraphCacheSystem(dataset, config) as system:
            client = system._process_backend.clients[0]
            sent = []

            def malformed(*request):
                sent.append(request)
                raise WireError("reply truncated: 3 of 90 bytes")

            monkeypatch.setattr(client.service, "request", malformed)
            with pytest.raises(ShardWorkerError) as excinfo:
                system.run_queries(clone_queries(workload)[:5])
            assert client.process.is_alive()
            assert system._process_backend.respawns_performed == 0
            assert len(sent) == 1
        assert excinfo.value.shard == 0
        assert isinstance(excinfo.value.__cause__, WireError)
        envelope = ErrorEnvelope.from_exception(excinfo.value)
        assert envelope.code == "shard-worker"
        assert envelope.details.get("shard") == 0


class TestProcessShardObservability:
    def test_describe_and_metrics_fan_in(self, dataset, workload):
        """/metrics-style fan-in reads worker-side cache state through the
        describe fallback, and the statistics mirror matches the merged view."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2,
                          shard_backend="process")
        queries = clone_queries(workload)[:30]
        with ShardedGraphCacheSystem(dataset, config) as system:
            system.run_queries(queries)
            rows = system.describe_shards()
            assert len(rows) == 2
            for row in rows:
                assert "cache" in row, "worker cache state missing from fan-in"
                assert row["index_memory_bytes"] > 0
            snapshot = system.statistics.to_dict()
            assert snapshot["num_queries"] == len(queries)
            per_shard = [shard["num_queries"]
                         for shard in snapshot["shards"].values()]
            assert all(count == len(queries) for count in per_shard)
            description = system.describe()
            assert description["config"]["shard_backend"] == "process"
