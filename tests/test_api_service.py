"""GraphService backend tests: local ≡ remote, typed errors, recording.

The service boundary's contract, checked per backend:

* :class:`LocalGraphService` answers exactly what the underlying system
  answers (including through ``run_batch``), and only closes a system it
  built itself;
* :class:`RemoteGraphService` raises the *same* typed exceptions an
  in-process system raises (reconstructed from the wire taxonomy — a
  backpressure 429 arrives as ``AdmissionRejectedError`` with its
  attributes, not as parsed message text), and a payload in any other wire
  version is refused with a typed 400;
* server-side trace recording captures the offered stream as a replayable
  :class:`Workload` whose replay returns the same answers.
"""

from __future__ import annotations

import pytest

from repro.api.envelopes import QueryRequest
from repro.api.remote import RemoteGraphService
from repro.api.service import GraphService, LocalGraphService
from repro.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    ProtocolError,
    RecordingStateError,
    ServerError,
)
from repro.graph import molecule_dataset
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer
from repro.workload import generate_trace, replay_trace


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(24, min_vertices=8, max_vertices=16, rng=11)


@pytest.fixture(scope="module")
def trace(dataset):
    return generate_trace(dataset, 24, skew="zipfian", query_type="mixed", seed=13)


def config(**overrides) -> GCConfig:
    payload = GCConfig(cache_capacity=12, window_size=4).to_dict()
    payload.update(overrides)
    return GCConfig.from_dict(payload)


def clone(query) -> QueryRequest:
    return QueryRequest(graph=query.graph.copy(), query_type=query.query_type)


class TestLocalGraphService:
    def test_answers_match_the_bare_system(self, dataset, trace):
        with GraphCacheSystem(dataset, config()) as system:
            expected = [frozenset(system.run_query(q.graph.copy(), q.query_type).answer)
                        for q in trace]
        with LocalGraphService(dataset, config()) as service:
            assert isinstance(service, GraphService)
            got = [service.run(clone(q)).answer for q in trace]
        assert got == expected

    def test_run_batch_per_item_outcomes(self, dataset, trace):
        with LocalGraphService(dataset, config()) as service:
            result = service.run_batch([clone(q) for q in trace])
            assert result.ok and len(result) == len(trace)
            assert result.raise_first() is result
            assert all(answer is not None for answer in result.answers())

    def test_sharded_construction_via_config(self, dataset, trace):
        with LocalGraphService(dataset, config(num_shards=2,
                                               scatter_mode="short-circuit")) as service:
            assert service.system.config.num_shards == 2
            snapshot = service.metrics()
            service.run(clone(trace[0]))
            assert service.metrics().statistics["aggregate"]["num_queries"] == 1
            assert snapshot.router is not None  # sharded sections present

    def test_wrapping_does_not_take_ownership(self, dataset):
        with GraphCacheSystem(dataset, config()) as system:
            service = LocalGraphService.from_system(system)
            service.run(QueryRequest(graph=dataset[0].copy()))
            service.close()  # must NOT close the caller's system
            report = system.run_query(dataset[0].copy(), "subgraph")
            assert report.answer

    def test_constructor_needs_exactly_one_source(self, dataset):
        with pytest.raises(ConfigurationError):
            LocalGraphService()
        with GraphCacheSystem(dataset, config()) as system:
            with pytest.raises(ConfigurationError):
                LocalGraphService(dataset, config(), system=system)


class TestRemoteGraphService:
    def test_matches_local(self, dataset, trace):
        with LocalGraphService(dataset, config()) as local:
            expected = [local.run(clone(q)).answer for q in trace]
        with QueryServer(dataset, config(), max_queue_depth=256) as server:
            client = RemoteGraphService.for_server(server)
            got = [client.run(clone(q)).answer for q in trace]
            assert got == expected
            # the typed surface rides along
            response = client.run(clone(trace[0]))
            assert response.batch_size >= 1 and response.queue_seconds is not None
            assert client.health()["status"] == "ok"
            assert client.metrics().aggregate["num_queries"] == len(trace) + 1

    def test_a_v1_shaped_payload_is_a_typed_400(self, dataset, trace):
        """No auto-upgrade: the flat pre-envelope shape is malformed input."""
        with QueryServer(dataset, config(), max_queue_depth=64) as server:
            client = RemoteGraphService.for_server(server)
            flat = clone(trace[0]).to_wire()["query"]  # graph at top level
            status, payload = client.request("POST", "/query", flat)
            assert status == 400 and payload["version"] == 2
            assert payload["error"]["code"] == "protocol"
            assert "version 2 is the only one spoken" in payload["error"]["message"]
            assert client.metrics().aggregate["num_queries"] == 0

    def test_remote_errors_are_typed(self, dataset):
        with QueryServer(dataset, config(), max_queue_depth=64) as server:
            client = RemoteGraphService.for_server(server)
            with pytest.raises(ProtocolError):
                client.run("not a graph")  # rejected client-side by as_request
            status, payload = client.request("POST", "/query",
                                             {"version": 2, "query": {}})
            assert status == 400
            assert payload["error"]["code"] == "protocol"

    def test_backpressure_raises_admission_rejected_with_attributes(self, dataset, trace):
        with QueryServer(dataset, config(), max_batch_size=1,
                         max_queue_depth=1) as server:
            client = RemoteGraphService.for_server(server)
            result = client.run_batch(
                [clone(trace[index % len(trace)]) for index in range(64)])
            rejected = [f for f in result.failures if f.code == "admission-rejected"]
            served = result.responses
            assert served, "some queries must be served"
            if rejected:  # under timing the queue may drain fast; usually hits
                exc = rejected[0].to_exception()
                assert isinstance(exc, AdmissionRejectedError)
                assert exc.queue_depth == 1  # the bound; the only detail
                assert not hasattr(exc, "shard")


class TestTraceRecording:
    def test_recorded_stream_replays_identically(self, dataset, trace, tmp_path):
        cfg = config(num_shards=2)
        with QueryServer(dataset, cfg, max_queue_depth=256) as server:
            client = RemoteGraphService.for_server(server)
            client.start_recording(name="live-traffic")
            live = replay_trace(client, trace, num_threads=1)
            assert live.served == len(trace)
            recorded = client.stop_recording()

        assert len(recorded) == len(trace)
        assert recorded.name == "live-traffic"
        assert recorded.metadata["recorded"] is True
        # the recording preserves order and semantics of the offered stream
        assert [q.query_type for q in recorded] == [q.query_type for q in trace]

        # a JSON round trip + replay against a fresh server gives the same
        # answers the live traffic got — the "replay production traffic
        # against a candidate configuration" loop, end to end
        path = tmp_path / "recorded.json"
        recorded.save(path)
        from repro.workload import Workload

        reloaded = Workload.load(path)
        with QueryServer(dataset, config(), max_queue_depth=256) as fresh:
            replayed = replay_trace(RemoteGraphService.for_server(fresh),
                                    reloaded, num_threads=1)
        assert replayed.answers() == live.answers()

    def test_server_side_persistence(self, dataset, trace, tmp_path):
        target = tmp_path / "server-side.json"
        with QueryServer(dataset, config(), max_queue_depth=64) as server:
            client = RemoteGraphService.for_server(server)
            started = client.start_recording(name="persisted", path=str(target))
            assert started["path"] == str(target)
            client.run(clone(trace[0]))
            recorded = client.stop_recording()
        assert target.exists()
        assert len(recorded) == 1

    def test_recording_state_errors_are_409(self, dataset):
        with QueryServer(dataset, config(), max_queue_depth=64) as server:
            client = RemoteGraphService.for_server(server)
            with pytest.raises(ServerError, match="409"):
                client.stop_recording()
            client.start_recording()
            status, payload = client.request("POST", "/record/start", {})
            assert status == 409
            assert payload["error"]["code"] == "recording-state"
            client.stop_recording()

    def test_recorder_records_offered_not_served(self, dataset, trace):
        """Backpressured (429) requests still land in the recording."""
        with QueryServer(dataset, config(), max_batch_size=1,
                         max_queue_depth=1) as server:
            client = RemoteGraphService.for_server(server)
            client.start_recording()
            result = replay_trace(client, trace, num_threads=8)
            recorded = client.stop_recording()
        assert result.served + result.rejected == len(trace)
        assert len(recorded) == len(trace)

    def test_failed_persist_returns_trace_inline_instead_of_losing_it(
            self, dataset, trace, tmp_path):
        """An unwritable persist path must not destroy the capture: the
        trace comes back inline with the write error in its metadata."""
        bad_path = tmp_path / "not-a-directory" / "trace.json"
        with QueryServer(dataset, config(), max_queue_depth=64) as server:
            client = RemoteGraphService.for_server(server)
            client.start_recording(name="precious", path=str(bad_path))
            client.run(clone(trace[0]))
            recorded = client.stop_recording()
        assert len(recorded) == 1
        assert "persist_error" in recorded.metadata
        assert not bad_path.exists()

    def test_explicit_v1_version_gets_the_one_error_shape(self, dataset):
        """A payload declaring "version": 1 is answered like any malformed
        input: the typed error envelope, naming the version spoken."""
        with QueryServer(dataset, config(), max_queue_depth=64) as server:
            client = RemoteGraphService.for_server(server)
            for declared in ({"version": 1}, {"version": 2}):
                status, payload = client.request("POST", "/query", declared)
                assert status == 400
                assert payload["version"] == 2
                assert payload["error"]["code"] == "protocol"

    def test_recorder_direct_state_machine(self):
        from repro.api.recording import TraceRecorder

        recorder = TraceRecorder()
        assert not recorder.active
        recorder.start(name="t")
        with pytest.raises(RecordingStateError):
            recorder.start()
        trace, path = recorder.stop()
        assert path is None and len(trace) == 0
        with pytest.raises(RecordingStateError):
            recorder.stop()
