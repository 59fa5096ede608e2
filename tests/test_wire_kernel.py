"""The wire kernel: one server adapter, one client core, no socket needed.

* endpoints are route tables behind ``handle`` — driven here without a
  socket, with the *same* malformed inputs against the public server app and
  the shard-worker app, which must answer identically — including the
  one-version rule: a ``/query`` or ``/batch`` payload that declares no wire
  version, or any but 2, is a 400 ``protocol`` error envelope;
* the two remote clients are transports over one sans-IO core — their public
  surfaces must match, and requests the core builds must be identical;
* the ``/batch`` body and its NDJSON reply lines round-trip through the core
  alone.

Plus the regression tests for the drift this refactor removed (async
``metrics_text``, URL-encoded ``debug_traces``, reconnect-once on the text
endpoint) and for the process-backend spawn-failure cleanup.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import multiprocessing
import socket
import threading

import pytest

from repro.api import core
from repro.api.aio import AsyncRemoteGraphService
from repro.api.envelopes import ErrorEnvelope, QueryRequest, QueryResponse
from repro.api.remote import RemoteGraphService
from repro.errors import ConfigurationError, ProtocolError
from repro.graph import molecule_dataset
from repro.query_model import QueryType
from repro.runtime import GCConfig, GraphCacheSystem
from repro.server import QueryServer
from repro.server.adapter import respond
from repro.sharding.process_backend import ProcessShardBackend
from repro.sharding.worker import ShardWorkerApp


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

#: ``/batch`` exists on the public server only (a worker's share of a batch
#: is a loop of ``/query`` calls), so its rows run against that app alone.
BATCH_WRONG_VERSIONS = [
    (case, f'{{{declared}"queries": [{{"version": 2}}]}}'.encode())
    for case, declared in WRONG_VERSIONS
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

    @pytest.mark.parametrize("case,raw", BATCH_WRONG_VERSIONS,
                             ids=[row[0] for row in BATCH_WRONG_VERSIONS])
    def test_batch_speaks_one_version(self, apps, case, raw):
        status, body = respond(apps["server"], "POST", "/batch", raw)
        assert status == 400 and error_shape(body) == "envelope", body
        assert body["error"]["code"] == "protocol"
        assert "version 2 is the only one spoken" in body["error"]["message"]
        assert respond(apps["worker"], "POST", "/batch", raw)[0] == 404

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

    def test_batch_reply_is_a_line_stream(self, apps, dataset):
        payload = {"version": 2, "queries": [
            QueryRequest(graph=dataset[0]).to_wire(), {"version": 2}, {"nope": 1}]}
        status, lines = apps["server"].handle("POST", "/batch", {}, payload)
        assert status == 200
        by_index = {line["index"]: line for line in lines}
        assert sorted(by_index) == [0, 1, 2]
        assert "result" in by_index[0] and by_index[1]["error"]["code"] == "protocol"
        assert "declares no protocol version" in by_index[2]["error"]["message"]
        status, body = apps["server"].handle("POST", "/batch", {}, [])
        assert status == 400 and error_shape(body) == "envelope"

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
# (b) client parity: same surface, same requests
# ---------------------------------------------------------------------- #
def public_methods(cls) -> dict:
    return {name: member for name, member in inspect.getmembers(cls)
            if callable(member) and not name.startswith("_")}


class TestClientParity:
    def test_every_sync_method_exists_on_the_async_client(self):
        sync, aio = public_methods(RemoteGraphService), public_methods(
            AsyncRemoteGraphService)
        # lifecycle is transport-shaped: close() / close_all() (a connection
        # per thread) vs aclose() (one pool)
        missing = set(sync) - set(aio) - {"close", "close_all"}
        assert "request" in sync and "request" in aio  # the raw exchange is public
        assert not missing, f"async client lacks {sorted(missing)}"
        for name in sorted(set(sync) & set(aio)):
            expected = list(inspect.signature(sync[name]).parameters)
            got = list(inspect.signature(aio[name]).parameters)
            # additive async-only knobs (e.g. run_batch concurrency) may follow
            assert got[:len(expected)] == expected, name

    def test_debug_traces_requests_are_identical_and_encoded(self):
        seen: dict[str, list] = {"sync": [], "async": []}

        sync = RemoteGraphService("127.0.0.1", 1)
        sync._exchange = lambda method, path, body=None: (
            seen["sync"].append((method, path, body)) or (200, b"{}"))

        aio = AsyncRemoteGraphService("127.0.0.1", 1)

        async def exchange(method, path, body=None):
            seen["async"].append((method, path, body))
            return 200, b"{}"

        aio._exchange = exchange

        sync.debug_traces(trace_id="a b&c")
        sync.debug_traces(sort="slowest", count=3)
        sync.start_recording(name="n", path="/tmp/x")

        async def go():
            await aio.debug_traces(trace_id="a b&c")
            await aio.debug_traces(sort="slowest", count=3)
            await aio.start_recording(name="n", path="/tmp/x")

        asyncio.run(go())
        assert seen["sync"] == seen["async"]
        assert seen["sync"][0][1] == "/debug/traces?trace_id=a+b%26c"

    def test_async_metrics_text_and_stale_sync_reconnect(self, dataset):
        with QueryServer(dataset, GCConfig(cache_capacity=8, window_size=2)) as server:
            async def go():
                async with AsyncRemoteGraphService.for_server(server) as client:
                    return await client.metrics_text()

            assert "gc_server_requests_total" in asyncio.run(go())

            with RemoteGraphService.for_server(server) as client:
                assert client.health()["status"] == "ok"
                # the keep-alive connection dies between requests
                client._connection().sock.shutdown(socket.SHUT_RDWR)
                assert "gc_server_requests_total" in client.metrics_text()


# ---------------------------------------------------------------------- #
# (c) the core alone: /batch body and NDJSON lines round-trip
# ---------------------------------------------------------------------- #
class TestClientCore:
    def test_batch_round_trips_without_a_transport(self, dataset):
        queries = [QueryRequest(graph=graph, request_id=f"q{i}")
                   for i, graph in enumerate(dataset[:3])]
        queries[1].deadline_seconds = 9.0  # its own deadline must survive
        body = json.loads(core.batch_body(queries, deadline_seconds=0.5,
                                          priority=7))
        assert body["version"] == 2
        assert [q["deadline_seconds"] for q in body["queries"]] == [0.5, 9.0, 0.5]
        assert all(q["priority"] == 7 for q in body["queries"])

        # the server's side of the exchange, reversed and with one index lost
        answers = {0: frozenset({"g0"}), 2: frozenset({"g2"})}
        lines = [b"\n"]
        for index in (2, 0):
            wire = QueryResponse(answer=answers[index],
                                 request_id=f"q{index}").to_wire()
            lines.append(json.dumps({"index": index, **wire}).encode() + b"\n")
        pairs = [pair for pair in map(core.batch_line, lines) if pair is not None]
        assert [index for index, _ in pairs] == [2, 0]
        result = core.gather_batch(len(queries), pairs)
        assert result[0].answer == answers[0] and result[0].request_id == "q0"
        assert result[2].answer == answers[2]
        assert isinstance(result[1], ErrorEnvelope)
        assert "no batch result line for index 1" in result[1].message

    def test_batch_refuses_indexless_and_versionless_lines(self):
        with pytest.raises(ProtocolError, match="without an index"):
            core.batch_line(b'{"version": 2, "result": {"answer": []}}')
        with pytest.raises(ProtocolError, match="declares no protocol version"):
            core.batch_line(b'{"index": 0, "answer": []}')

    def test_sampling_originates_a_trace(self, dataset):
        for rate, traced in ((0.0, False), (1.0, True)):
            client = core.ClientCore(trace_sample_rate=rate)
            request = QueryRequest(graph=dataset[0], query_type=QueryType.SUBGRAPH)
            with client._client_span(request):
                pass
            assert (request.trace is not None) is traced
        with pytest.raises(ProtocolError):
            core.ClientCore(trace_sample_rate=7.0)


# ---------------------------------------------------------------------- #
# process backend: a failed spawn must clean up after itself
# ---------------------------------------------------------------------- #
def assert_nothing_left_running():
    assert not [child.name for child in multiprocessing.active_children()
                if child.name.startswith("gc-shard-worker-")]
    assert not [thread.name for thread in threading.enumerate()
                if "procshard" in thread.name]  # the backend owns no thread


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
