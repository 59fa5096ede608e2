"""RemoteGraphService: the sync-HTTP backend of the service boundary.

A stdlib (``http.client``) client speaking the versioned envelope protocol
against a :class:`~repro.server.app.QueryServer`.  One keep-alive connection
per thread, so thread-pool load generators don't pay a TCP handshake per
query.  This replaces the bespoke ``QueryServerClient`` plumbing — the old
class still exists in :mod:`repro.workload.replay` as a thin v1-pinned
subclass for callers that want the raw payload dicts.

Protocol version is negotiated lazily on first use (``GET /protocol``; a
server without the endpoint is treated as v1-only) and can be pinned via the
constructor.  Errors come back as the same typed :mod:`repro.errors`
exceptions an in-process system raises, reconstructed from the wire
taxonomy — a 429 raises :class:`AdmissionRejectedError` with its
``shard``/``queue_depth`` attributes intact, never parsed from message text.
"""

from __future__ import annotations

import http.client
import threading
from typing import TYPE_CHECKING

from repro.api import core
from repro.api.core import (  # noqa: F401 - the wire helpers' long-standing import path
    ClientCore,
    negotiated_version_from,
    recording_start_body,
    trace_from_stop_payload,
    validate_pinned_version,
)
from repro.api.envelopes import (
    BatchResult,
    ErrorEnvelope,
    MetricsSnapshot,
    QueryResponse,
    as_request,
)
from repro.errors import ServerError
from repro.query_model import QueryType

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (replay.py imports us)
    from repro.workload.workload import Workload


class RemoteGraphService(ClientCore):
    """Sync HTTP :class:`GraphService` backend (keep-alive per thread)."""

    backend = "remote-sync"

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        protocol_version: int | None = None,
        trace_sample_rate: float = 0.0,
    ) -> None:
        super().__init__(protocol_version, trace_sample_rate)
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()
        self._version_lock = threading.Lock()

    @classmethod
    def for_server(cls, server, **kwargs) -> "RemoteGraphService":
        """Client bound to an in-process :class:`QueryServer`."""
        return cls(server.host, server.port, **kwargs)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.connection = connection
        return connection

    def _exchange(self, method: str, path: str,
                  body: bytes | None = None) -> tuple[int, bytes]:
        """One bytes-level request/response over this thread's connection."""
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            connection = self._connection()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                return response.status, response.read()
            except TimeoutError:
                # the server may still be executing the request: retrying a
                # POST would run the query twice (double-counted statistics),
                # so timeouts always propagate
                self.close()
                raise
            except (http.client.HTTPException, ConnectionError, OSError):
                # stale keep-alive connection (server closed it between
                # requests, before processing anything): reconnect once
                self.close()
                if attempt:
                    raise
        raise ServerError("unreachable")  # pragma: no cover - loop always returns

    def _request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        status, data = self._exchange(method, path, core.encode_body(body))
        return status, core.decode_body(data)

    def _ok(self, method: str, path: str, body: dict | None = None) -> dict:
        return core.expect_ok(path, *self._request(method, path, body))

    def close(self) -> None:
        """Drop this thread's connection (others close on their own threads)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def __enter__(self) -> "RemoteGraphService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # protocol negotiation
    # ------------------------------------------------------------------ #
    @property
    def protocol_version(self) -> int:
        """The wire version in use (negotiates on first access)."""
        if self._version is None:
            with self._version_lock:
                if self._version is None:
                    self._version = self.negotiate()
        return self._version

    def negotiate(self) -> int:
        """Ask the server which protocol versions it speaks and pick one.

        A server without a ``/protocol`` endpoint (pre-envelope builds)
        answers 404 and is treated as v1-only.
        """
        return negotiated_version_from(*self._request("GET", "/protocol"))

    # ------------------------------------------------------------------ #
    # GraphService surface
    # ------------------------------------------------------------------ #
    def send(self, query, query_type: QueryType | str = QueryType.SUBGRAPH) -> tuple[int, dict]:
        """POST one query; returns the raw ``(http_status, payload)``.

        A sampled query originates a trace around the exchange (see
        :meth:`ClientCore._client_span`).
        """
        request = as_request(query, query_type)
        version = self.protocol_version
        with self._client_span(request, version):
            return self._request("POST", "/query", request.to_wire(version))

    def run(self, query, query_type: QueryType | str = QueryType.SUBGRAPH) -> QueryResponse:
        """Execute one query, raising the typed error on any failure."""
        return core.response_from(*self.send(query, query_type))

    def run_batch(self, queries) -> BatchResult:
        """Execute queries sequentially over the keep-alive connection."""
        items: list = []
        for query in queries:
            request = as_request(query)
            try:
                items.append(self.run(request))
            except Exception as exc:
                items.append(ErrorEnvelope.from_exception(
                    exc, request_id=request.request_id))
        return BatchResult(items=items)

    def stream_batch(self, queries, deadline_seconds: float | None = None,
                     priority: int | None = None):
        """Submit a whole batch over one ``POST /batch``; yield as they finish.

        One connection, one submission round-trip; per-query NDJSON result
        lines stream back in the *server's completion order* and are yielded
        as ``(index, QueryResponse | ErrorEnvelope)`` pairs, ``index`` being
        the query's position in ``queries``.  ``deadline_seconds`` /
        ``priority`` apply to every query that doesn't already carry its
        own.  Uses a dedicated connection (the response is framed by
        connection close, so the thread-local keep-alive one stays usable).
        """
        body = core.batch_body(queries, self.protocol_version,
                               deadline_seconds, priority)
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("POST", "/batch", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            if response.status != 200:
                core.raise_batch_refusal(response.status, response.read())
            # EOF: the server closed — the batch is complete
            for line in iter(response.readline, b""):
                pair = core.batch_line(line)
                if pair is not None:
                    yield pair
        finally:
            connection.close()

    def run_batch_streamed(self, queries, deadline_seconds: float | None = None,
                           priority: int | None = None) -> BatchResult:
        """:meth:`stream_batch`, gathered back into submission order."""
        queries = list(queries)
        return core.gather_batch(len(queries), self.stream_batch(
            queries, deadline_seconds=deadline_seconds, priority=priority))

    def metrics(self) -> MetricsSnapshot:
        return MetricsSnapshot.from_wire(self._ok("GET", "/metrics"))

    def stats(self) -> dict:
        return self._ok("GET", "/stats")

    def health(self) -> dict:
        return self._ok("GET", "/health")

    def debug_traces(self, trace_id: str | None = None, sort: str = "recent",
                     count: int = 10) -> dict:
        """Fetch span trees from ``GET /debug/traces``."""
        return self._ok("GET", core.debug_traces_path(trace_id, sort, count))

    def metrics_text(self) -> str:
        """The Prometheus-style text exposition (``/metrics?format=text``)."""
        path = core.METRICS_TEXT_PATH
        return core.text_from(path, *self._exchange("GET", path))

    # ------------------------------------------------------------------ #
    # server-side trace recording
    # ------------------------------------------------------------------ #
    def start_recording(self, name: str | None = None,
                        path: str | None = None) -> dict:
        """Start recording the server's live request stream as a trace.

        ``path`` (a server-side filesystem path) makes ``stop`` persist the
        trace there; without it the trace JSON comes back inline on stop.
        """
        return self._ok("POST", "/record/start", recording_start_body(name, path))

    def stop_recording(self) -> "Workload":
        """Stop recording; returns the captured replayable trace."""
        return trace_from_stop_payload(self._ok("POST", "/record/stop", {}))
