"""The wire kernel: one server adapter, sans-IO client functions, no socket needed.

* endpoints are route tables behind ``handle`` — driven here without a
  socket, with the *same* malformed inputs against the public server app and
  the shard-worker app, which must answer identically — including the
  one-version rule: a ``/query`` payload that declares no wire version, or
  any but 2, is a 400 ``protocol`` error envelope; so is a deadline that is
  not a finite positive number; the retired ``/batch`` is a 404 on both;
* the remote client builds its requests through the sans-IO functions of
  :mod:`repro.api.core` — ``debug_traces`` arguments arrive URL-encoded, and
  client-side sampling originates a trace.

Plus the regression tests for reconnect-once on the text endpoint and for
the process-backend spawn-failure cleanup.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import socket
import threading

import pytest

from repro.api.envelopes import QueryRequest
from repro.api.remote import RemoteGraphService
from repro.errors import ConfigurationError, ProtocolError
from repro.graph import molecule_dataset
from repro.graph.operations import random_connected_subgraph
from repro.query_model import QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer
from repro.server.adapter import respond
from repro.sharding.process_backend import ProcessShardBackend
from repro.sharding.worker import ShardWorkerApp, report_from_wire, report_to_wire


@pytest.fixture(scope="module")
def dataset():
    return molecule_dataset(10, min_vertices=6, max_vertices=10, rng=7)


@pytest.fixture(scope="module")
def apps(dataset):
    """The two served apps; the QueryServer is never started (no socket use)."""
    config = GCConfig(cache_capacity=8, window_size=2)
    server = QueryServer(dataset, config)
    system = GraphCacheSystem(dataset, config)
    try:
        yield {"server": server, "worker": ShardWorkerApp(system, shard_index=0)}
    finally:
        server.stop()
        system.close()


# ---------------------------------------------------------------------- #
# (a) socket-free endpoint table: both apps, same malformed inputs
# ---------------------------------------------------------------------- #
#: (case, method, target, raw body) → expected (status, error-shape):
#: "envelope" is the typed error envelope an app answers a request it could
#: read; "transport" is the adapter's plain ``{"error": "<message>"}`` for
#: what never reached an endpoint (undecodable body, unknown route).
MALFORMED = [
    ("bad JSON", "POST", "/query", b"{not json", 400, "transport"),
    ("non-UTF-8 body", "POST", "/query", b"\xff\xfe", 400, "transport"),
    ("non-object body", "POST", "/query", b"[1, 2, 3]", 400, "envelope"),
    ("declared v2, no query", "POST", "/query", b'{"version": 2}', 400, "envelope"),
    ("unknown path", "GET", "/nope", None, 404, "transport"),
    ("unknown path (POST)", "POST", "/nope", b"{}", 404, "transport"),
    ("wrong method on /query", "GET", "/query", None, 404, "transport"),
    ("the retired /protocol", "GET", "/protocol", None, 404, "transport"),
    ("the retired /batch", "POST", "/batch",
     b'{"version": 2, "queries": [{"version": 2, "query": '
     b'{"graph": {"vertices": [[0, "C"]], "edges": []}}}]}', 404, "transport"),
]

#: One wire version: what a payload may declare instead of ``"version": 2``.
WRONG_VERSIONS = [
    ("no version", ""),
    ("version 1", '"version": 1, '),
    ('version "2"', '"version": "2", '),
    ("version true", '"version": true, '),
    ("version 3", '"version": 3, '),
]
#: a payload that is both a v1-shaped flat query and a would-be envelope: only
#: the version it declares is wrong
_GRAPH = '"graph": {"vertices": [[0, "C"]], "edges": []}'
MALFORMED += [
    (f"/query, {case}", "POST", "/query",
     f'{{{declared}{_GRAPH}, "query": {{{_GRAPH}}}}}'.encode(), 400, "envelope")
    for case, declared in WRONG_VERSIONS
]
#: a deadline is a finite positive number: ``json.loads`` reads every one of
#: these, and none is a deadline an EDF queue can order
MALFORMED += [
    (f"deadline {case}", "POST", "/query",
     f'{{"version": 2, "query": {{{_GRAPH}}}, "deadline_seconds": {literal}}}'
     .encode(), 400, "envelope")
    for case, literal in [("0", "0"), ("NaN", "NaN"), ("Infinity", "Infinity"),
                          ("-Infinity", "-Infinity"), ("1e999", "1e999"),
                          ("10**400", "1" + "0" * 400)]
]


def error_shape(body: dict) -> str:
    if isinstance(body.get("error"), dict):
        assert body["version"] == 2
        assert {"code", "message", "http_status", "retryable"} <= set(body["error"])
        return "envelope"
    assert isinstance(body["error"], str)
    return "transport"


class TestEndpointTable:
    @pytest.mark.parametrize("case,method,target,raw,status,shape", MALFORMED,
                             ids=[row[0] for row in MALFORMED])
    def test_malformed_inputs_answer_identically(self, apps, case, method,
                                                 target, raw, status, shape):
        replies = {name: respond(app, method, target, raw)
                   for name, app in apps.items()}
        for name, (got_status, body) in replies.items():
            assert got_status == status, (name, body)
            assert error_shape(body) == shape, (name, body)
            if shape == "envelope":
                assert body["error"]["code"] == "protocol", (name, body)
            if case.startswith("/query, "):
                assert "version 2 is the only one spoken" in body["error"]["message"]
        assert replies["server"] == replies["worker"]

    def test_handle_routes_parsed_requests(self, apps, dataset):
        wire = QueryRequest(graph=dataset[0], request_id="r1").to_wire()
        for app in apps.values():
            status, body = app.handle("POST", "/query", {}, wire)
            assert status == 200 and body["request_id"] == "r1"
            assert dataset[0].graph_id in body["result"]["answer"]
            assert app.handle("PUT", "/query", {}, wire)[0] == 404

    def test_query_string_reaches_the_endpoint(self, apps):
        status, text = respond(apps["server"], "GET", "/metrics?format=text", None)
        assert status == 200 and isinstance(text, str)
        assert "gc_server_requests_total" in text
        status, body = respond(apps["server"], "GET",
                               "/debug/traces?sort=sideways", None)
        assert status == 400 and "sideways" in body["error"]

    def test_worker_admin_routes(self, apps, tmp_path):
        worker = apps["worker"]
        assert worker.handle("POST", "/admin/flush-window", {}, {}) == (200, {"ok": True})
        assert worker.handle("POST", "/admin/snapshot/save", {}, [])[0] == 400
        target = str(tmp_path / "shard.json")
        status, body = worker.handle("POST", "/admin/snapshot/save", {},
                                     {"path": target})
        assert status == 200 and isinstance(body["entries"], int)
        assert worker.handle("POST", "/admin/snapshot/restore", {},
                             {"path": target}) == (200, body)


# ---------------------------------------------------------------------- #
# (b) the remote client: encoded requests, sampling, reconnect
# ---------------------------------------------------------------------- #
class TestRemoteClient:
    def test_debug_traces_requests_are_encoded(self):
        seen = []
        client = RemoteGraphService("127.0.0.1", 1)
        client._exchange = lambda method, path, body=None: (
            seen.append((method, path, body)) or (200, b"{}"))

        client.debug_traces(trace_id="a b&c")
        client.debug_traces(sort="slowest", count=3)
        client.start_recording(name="n", path="trace.json")
        assert seen == [
            ("GET", "/debug/traces?trace_id=a+b%26c", None),
            ("GET", "/debug/traces?sort=slowest&count=3", None),
            ("POST", "/record/start", b'{"name": "n", "path": "trace.json"}'),
        ]

    def test_sampling_originates_a_trace(self, dataset):
        for rate, traced in ((0.0, False), (1.0, True)):
            client = RemoteGraphService("127.0.0.1", 1, trace_sample_rate=rate)
            request = QueryRequest(graph=dataset[0], query_type=QueryType.SUBGRAPH)
            with client._client_span(request):
                pass
            assert (request.trace is not None) is traced
        with pytest.raises(ProtocolError):
            RemoteGraphService("127.0.0.1", 1, trace_sample_rate=7.0)

    def test_metrics_text_and_stale_connection_reconnect(self, dataset):
        with QueryServer(dataset, GCConfig(cache_capacity=8, window_size=2)) as server:
            with RemoteGraphService.for_server(server) as client:
                assert "gc_server_requests_total" in client.metrics_text()
                # the keep-alive connection dies between requests
                client._connection().sock.shutdown(socket.SHUT_RDWR)
                assert "gc_server_requests_total" in client.metrics_text()


# ---------------------------------------------------------------------- #
# process backend: a failed spawn must clean up after itself
# ---------------------------------------------------------------------- #
def assert_nothing_left_running():
    assert not [child.name for child in multiprocessing.active_children()
                if child.name.startswith("gc-shard-worker-")]
    assert not [thread.name for thread in threading.enumerate()
                if "procshard" in thread.name]  # the backend owns no thread


class TestReportWire:
    def test_a_report_survives_the_wire_unchanged(self, dataset):
        # a process shard's report crosses as JSON; the merge reads every
        # field back, and ``baseline_seconds`` is always a float estimate
        query_graph = random_connected_subgraph(dataset[0], 5, rng=5)
        with GraphCacheSystem(dataset, GCConfig(cache_capacity=8, window_size=1)) as system:
            reports = [system.run_query(query_graph.copy(), "subgraph") for _ in range(2)]
        assert reports[1].exact_hit_entry is not None
        for report in reports:
            back = report_from_wire(report.query, json.loads(json.dumps(report_to_wire(report))))
            for field in dataclasses.fields(report):
                assert getattr(back, field.name) == getattr(report, field.name), field.name
            assert isinstance(back.baseline_seconds, float)


class TestSpawnFailure:
    def test_unpicklable_factory_surfaces_configuration_error(self, dataset):
        with pytest.raises(ConfigurationError, match="module-level callable"):
            ProcessShardBackend([dataset[:5], dataset[5:]], GCConfig(),
                                method_factory=lambda: None)
        assert_nothing_left_running()

    def test_workers_started_before_the_failure_are_terminated(self, dataset,
                                                               monkeypatch):
        start = ProcessShardBackend._start_process

        def failing(self, index):
            if index == 1:
                raise ConfigurationError("failed to spawn shard 1 worker")
            return start(self, index)

        monkeypatch.setattr(ProcessShardBackend, "_start_process", failing)
        with pytest.raises(ConfigurationError, match="shard 1"):
            ProcessShardBackend([dataset[:5], dataset[5:]], GCConfig())
        assert_nothing_left_running()
