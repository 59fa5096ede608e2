"""Query serving subsystem: end-to-end equivalence, batching, backpressure.

The acceptance property mirrors the concurrent engine's: a ≥200-query mixed
sub/supergraph trace replayed *through the HTTP server* (batched, concurrent
clients) returns exactly the answer sets an in-process ``run_queries`` pass
produces.  On top of that: admission control rejects with 429 when the
bounded queue is full, shutdown drains gracefully, ``/metrics`` serialises
the statistics snapshot, and a snapshot-configured server restarts warm.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import QueryRequest, RemoteGraphService, parse_request
from repro.errors import AdmissionRejectedError, CacheError, ServerClosedError
from repro.graph import molecule_dataset
from repro.graph.graph import Graph
from repro.isomorphism.base import MatchResult, SubgraphMatcher
from repro.isomorphism.vf2 import VF2Matcher
from repro.methods import DirectSIMethod
from repro.query_model import Query, QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer, RequestBatcher
from repro.workload import generate_trace, replay_trace
from tests.gated import GatedDispatcher


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(16, min_vertices=7, max_vertices=13, rng=77)


@pytest.fixture(scope="module")
def trace(dataset):
    return generate_trace(dataset, 200, skew="zipfian", query_type="mixed", seed=13)


@pytest.fixture(scope="module")
def reference_answers(dataset, trace):
    """Sequential in-process execution is the reference arm."""
    with GraphCacheSystem(dataset, GCConfig(cache_capacity=25, window_size=5)) as system:
        clones = [Query(graph=q.graph.copy(), query_type=q.query_type) for q in trace]
        return [frozenset(report.answer) for report in system.run_queries(clones)]


class SlowMatcher(SubgraphMatcher):
    """VF2 with a fixed pre-test sleep — makes queue buildup deterministic."""

    name = "vf2+slow"

    def __init__(self, delay_seconds: float) -> None:
        self._inner = VF2Matcher()
        self._delay = delay_seconds

    def find_embedding(self, query: Graph, target: Graph) -> MatchResult:
        time.sleep(self._delay)
        return self._inner.find_embedding(query, target)


class TestEndToEndEquivalence:
    def test_trace_is_mixed_and_large(self, trace):
        assert len(trace) >= 200
        assert {q.query_type for q in trace} == {QueryType.SUBGRAPH, QueryType.SUPERGRAPH}

    def test_server_replay_matches_in_process(self, dataset, trace, reference_answers):
        config = GCConfig(cache_capacity=25, window_size=5)
        with QueryServer(dataset, config, max_batch_size=4, max_queue_depth=256) as server:
            client = RemoteGraphService.for_server(server)
            result = replay_trace(client, trace, num_threads=4)
        assert result.served == len(trace)
        assert result.rejected == 0 and result.errors == 0
        assert result.answers() == reference_answers
        # batching actually coalesced (concurrent clients, 4-deep batches)
        batches = server.batcher.stats()
        assert batches.served == len(trace)
        assert batches.largest_batch > 1

    def test_single_query_roundtrip(self, dataset):
        with QueryServer(dataset, GCConfig(cache_capacity=10, window_size=5)) as server:
            client = RemoteGraphService.for_server(server)
            response = client.run(dataset[0].copy(), "subgraph")
        assert dataset[0].graph_id in response.answer
        assert response.query_type is QueryType.SUBGRAPH
        assert response.stage_seconds  # per-stage latency is reported
        assert response.batch_size >= 1


class TestAdmissionControl:
    def test_full_queue_rejects_with_429(self, dataset):
        method = DirectSIMethod(verifier=SlowMatcher(0.01))
        with QueryServer(
            dataset,
            GCConfig(cache_capacity=10, window_size=5),
            method=method,
            max_batch_size=1,
            max_queue_depth=1,
        ) as server:
            trace = generate_trace(dataset, 24, skew="uniform", seed=5)
            client = RemoteGraphService.for_server(server)
            result = replay_trace(client, trace, num_threads=8)
        assert result.rejected > 0
        assert result.errors == 0
        assert server.batcher.stats().rejected == result.rejected
        # every rejection carried the protocol's error payload
        rejected = [event for event in result.events if event.status == 429]
        assert all("queue is full" in event.error for event in rejected)

    def test_served_plus_rejected_covers_trace(self, dataset):
        method = DirectSIMethod(verifier=SlowMatcher(0.005))
        with QueryServer(dataset, method=method, max_batch_size=2,
                         max_queue_depth=2) as server:
            trace = generate_trace(dataset, 20, skew="uniform", seed=6)
            client = RemoteGraphService.for_server(server)
            result = replay_trace(client, trace, num_threads=6)
        assert result.served + result.rejected == len(trace)

    def test_the_queue_bound_is_the_only_admission_knob(self, dataset):
        """Cost-based admission is gone: its knobs are TypeErrors, not no-ops."""
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5)) as system:
            with pytest.raises(TypeError, match="admission_mode"):
                RequestBatcher(system, admission_mode="cost-based")
        with pytest.raises(TypeError, match="max_shard_cost_seconds"):
            QueryServer(dataset, max_shard_cost_seconds=0.25)


class TestBatcher:
    def test_coalesces_up_to_max_batch(self, dataset):
        """Six queries queued behind a held dispatcher: the next batch is the
        first four in submission order, the one after it the other two."""
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5)) as system:
            gate = GatedDispatcher(system)
            batcher = RequestBatcher(system, max_batch_size=4, max_queue_depth=32)
            try:
                plug = gate.plug(batcher, Query(graph=dataset[0].copy()))
                queries = [Query(graph=dataset[i].copy()) for i in range(1, 7)]
                futures = [batcher.submit(query) for query in queries]
                gate.release()
                served = [future.result(timeout=30) for future in [plug, *futures]]
            finally:
                batcher.close()
        ids = [query.query_id for query in queries]
        assert [[q.query_id for q in batch] for batch in gate.batches[1:]] \
            == [ids[:4], ids[4:]]
        assert [item.batch_size for item in served] == [1, 4, 4, 4, 4, 2, 2]
        assert [item.report.query.query_id for item in served[1:]] == ids
        assert all(item.queue_seconds >= 0 for item in served)
        stats = batcher.stats()
        assert stats.served == 7 and stats.rejected == 0
        assert stats.batches == 3 and stats.largest_batch == 4

    def test_close_drains_queued_queries(self, dataset):
        method = DirectSIMethod(verifier=SlowMatcher(0.002))
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            batcher = RequestBatcher(system, max_batch_size=2, max_queue_depth=32)
            futures = [batcher.submit(Query(graph=dataset[0].copy())) for _ in range(10)]
            batcher.close(drain=True)
            results = [future.result(timeout=30) for future in futures]
        assert len(results) == 10
        with pytest.raises(ServerClosedError):
            batcher.submit(Query(graph=dataset[0].copy()))

    def test_close_without_drain_fails_pending(self, dataset):
        method = DirectSIMethod(verifier=SlowMatcher(0.02))
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            batcher = RequestBatcher(system, max_batch_size=1, max_queue_depth=32)
            futures = [batcher.submit(Query(graph=dataset[0].copy())) for _ in range(6)]
            batcher.close(drain=False)
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=30))
                except ServerClosedError:
                    outcomes.append(None)
        # the in-flight head may complete; everything else was refused
        assert None in outcomes

    def test_rejects_when_queue_full(self, dataset):
        method = DirectSIMethod(verifier=SlowMatcher(0.05))
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=10, window_size=5),
                              method=method) as system:
            batcher = RequestBatcher(system, max_batch_size=1, max_queue_depth=1)
            accepted = []
            with pytest.raises(AdmissionRejectedError):
                for _ in range(20):
                    accepted.append(batcher.submit(Query(graph=dataset[0].copy())))
            batcher.close(drain=True)
            for future in accepted:
                future.result(timeout=30)


class TestObservabilityEndpoints:
    def test_metrics_snapshot(self, dataset):
        with QueryServer(dataset, GCConfig(cache_capacity=10, window_size=5)) as server:
            client = RemoteGraphService.for_server(server)
            for graph in dataset[:6]:
                client.run(graph.copy(), "subgraph")
            metrics = client.metrics().to_wire()
        statistics = metrics["statistics"]
        assert statistics["num_queries"] == 6
        assert 0.0 <= statistics["aggregate"]["hit_ratio"] <= 1.0
        stages = {row["stage"] for row in statistics["stage_breakdown"]}
        assert {"filter", "verify"} <= stages
        assert metrics["cache"]["population"] >= 1
        json.dumps(metrics)  # JSON-safe end to end

    def test_stats_counters(self, dataset):
        with QueryServer(dataset, GCConfig(cache_capacity=10, window_size=5)) as server:
            client = RemoteGraphService.for_server(server)
            client.run(dataset[0].copy())
            stats = client.stats()
        assert stats["batcher"]["submitted"] == 1
        assert stats["server"]["uptime_seconds"] >= 0
        assert stats["dataset_size"] == len(dataset)
        json.dumps(stats)

    def test_malformed_and_unknown_requests(self, dataset):
        with QueryServer(dataset) as server:
            client = RemoteGraphService.for_server(server)
            status, payload = client.request(
                "POST", "/query", {"version": 2, "query": {"not-a-graph": 1}})
            assert status == 400 and "graph" in payload["error"]["message"]
            status, _ = client.request("GET", "/nope")
            assert status == 404
            status, _ = client.request("POST", "/nope", {})
            assert status == 404
            status, payload = client.request(
                "POST", "/query",
                {"version": 2, "query": {"graph": {"vertices": "bogus"}}})
            assert status == 400 and "malformed" in payload["error"]["message"]

    def test_concurrent_metrics_while_serving(self, dataset):
        """/metrics stays consistent while queries are in flight."""
        with QueryServer(dataset, GCConfig(cache_capacity=10, window_size=5)) as server:
            client = RemoteGraphService.for_server(server)
            trace = generate_trace(dataset, 30, skew="uniform", seed=9)
            errors = []

            def poll():
                poller = RemoteGraphService.for_server(server)
                for _ in range(10):
                    try:
                        json.dumps(poller.metrics().to_wire())
                    except Exception as exc:  # pragma: no cover - failure path
                        errors.append(exc)
                poller.close()

            thread = threading.Thread(target=poll)
            thread.start()
            result = replay_trace(client, trace, num_threads=2)
            thread.join()
        assert not errors
        assert result.served == len(trace)


class TestSnapshotLifecycle:
    def test_restart_starts_warm(self, dataset, tmp_path):
        snapshot = tmp_path / "cache-snapshot.json"
        trace = generate_trace(dataset, 40, skew="zipfian", seed=21)
        config = GCConfig(cache_capacity=15, window_size=5)
        with QueryServer(dataset, config, snapshot_path=snapshot) as server:
            client = RemoteGraphService.for_server(server)
            replay_trace(client, trace, num_threads=2)
            population = len(server.system.cache)
        assert snapshot.exists()
        assert population > 0

        with QueryServer(dataset, config, snapshot_path=snapshot) as restarted:
            assert restarted.restored_entries == population
            assert len(restarted.system.cache) == population
            # a warm-started server answers correctly straight away
            client = RemoteGraphService.for_server(restarted)
            response = client.run(dataset[0].copy(), "subgraph")
            assert dataset[0].graph_id in response.answer

    def test_no_snapshot_path_writes_nothing(self, dataset, tmp_path):
        with QueryServer(dataset) as server:
            client = RemoteGraphService.for_server(server)
            client.run(dataset[0].copy())
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_snapshot_fails_loudly(self, dataset, tmp_path):
        """A corrupt warm-cache file must raise at startup, not be silently
        discarded (and then overwritten at shutdown) — as a typed error."""
        snapshot = tmp_path / "corrupt.json"
        snapshot.write_text("{not json", encoding="utf-8")
        with pytest.raises(CacheError, match="is not JSON"):
            QueryServer(dataset, snapshot_path=snapshot)
        sharded = GCConfig(cache_capacity=10, window_size=5, num_shards=2)
        with pytest.raises(CacheError, match="is not JSON"):
            QueryServer(dataset, sharded, snapshot_path=snapshot)
        assert snapshot.read_text(encoding="utf-8") == "{not json"  # untouched


class TestShardedServing:
    def test_sharded_metrics_and_snapshot_fan_out(self, dataset, tmp_path):
        """The server accepts a sharded system transparently: per-shard
        /metrics sections, and snapshots fan out to per-shard files."""
        config = GCConfig(cache_capacity=25, window_size=5, num_shards=2)
        snapshot = tmp_path / "snap.json"
        with QueryServer(dataset, config, snapshot_path=snapshot) as server:
            client = RemoteGraphService.for_server(server)
            for graph in dataset[:6]:
                client.run(graph.copy(), "subgraph")
            metrics = client.metrics().to_wire()
        statistics = metrics["statistics"]
        assert statistics["num_queries"] == 6
        assert statistics["num_shards"] == 2
        assert set(statistics["shards"]) == {"shard0", "shard1"}
        assert all(shard["num_queries"] == 6 for shard in statistics["shards"].values())
        assert metrics["router"]["num_shards"] == 2
        assert [row["shard"] for row in metrics["shards"]] == [0, 1]
        json.dumps(metrics)  # JSON-safe end to end

        # snapshot fan-out: manifest + one file per shard, restart warm
        assert snapshot.exists()
        assert (tmp_path / "snap-shard0.json").exists()
        assert (tmp_path / "snap-shard1.json").exists()
        with QueryServer(dataset, config, snapshot_path=snapshot) as restarted:
            assert restarted.restored_entries > 0

        # a different shard layout cold-starts instead of mis-restoring
        other = GCConfig(cache_capacity=25, window_size=5, num_shards=4)
        with QueryServer(dataset, other, snapshot_path=tmp_path / "snap.json") as cold:
            assert cold.restored_entries == 0

    def test_unsharded_restore_ignores_sharded_manifest(self, dataset, tmp_path):
        snapshot = tmp_path / "snap.json"
        sharded = GCConfig(cache_capacity=25, window_size=5, num_shards=2)
        with QueryServer(dataset, sharded, snapshot_path=snapshot) as server:
            client = RemoteGraphService.for_server(server)
            client.run(dataset[0].copy(), "subgraph")
        with QueryServer(dataset, GCConfig(cache_capacity=25, window_size=5),
                         snapshot_path=snapshot) as unsharded:
            assert unsharded.restored_entries == 0


class TestLifecycleEdgeCases:
    def test_bind_failure_cleans_up(self, dataset):
        """A failed port bind must not leak the system or batcher thread."""
        with QueryServer(dataset) as server:
            before = threading.active_count()
            with pytest.raises(OSError):
                QueryServer(dataset, port=server.port)  # port already bound
            assert threading.active_count() == before  # no dispatcher leaked

    def test_replay_percentiles_nearest_rank(self):
        from repro.workload import ReplayEvent, ReplayResult

        result = ReplayResult(trace_name="t", events=[
            ReplayEvent(index=i, status=200, latency_seconds=float(i + 1))
            for i in range(4)
        ])
        tails = result.latency_percentiles((25, 50, 99, 100))
        assert tails == {"p25": 1.0, "p50": 2.0, "p99": 4.0, "p100": 4.0}


class TestProtocol:
    def test_query_payload_roundtrip(self, dataset):
        query = Query(graph=dataset[3].copy(), query_type=QueryType.SUPERGRAPH,
                      metadata={"mode": "repeat"})
        wire = json.loads(json.dumps(QueryRequest.from_query(query).to_wire()))
        rebuilt = parse_request(wire).to_query()
        assert rebuilt.query_type is QueryType.SUPERGRAPH
        assert rebuilt.metadata == {"mode": "repeat"}
        assert rebuilt.graph.to_dict() == query.graph.to_dict()
