"""RemoteGraphService: the one remote backend of the service boundary.

A stdlib (``http.client``) client speaking the envelope protocol against a
:class:`~repro.server.app.QueryServer` — or, as the process shard backend's
transport, against a shard worker.  One keep-alive connection per calling
thread: a thread-per-connection load generator (:func:`replay_trace`, up to
a thousand threads in the tests), or a scatter-pool slot, pays no TCP
handshake per query and never shares a connection with a sibling.  The wire
decisions that need no socket are the functions of :mod:`repro.api.core`;
this class adds the transport and client-side trace sampling.

``close()`` drops the calling thread's connection only (other threads may be
mid-request on theirs); ``close_all()`` is for an owner that has stopped the
peer and must leave no socket to it behind.

Errors come back as the same typed :mod:`repro.errors` exceptions an
in-process system raises, reconstructed from the wire taxonomy — a 429 raises
:class:`AdmissionRejectedError` with its ``shard``/``queue_depth`` attributes
intact, never parsed from message text.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
import uuid
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.api import core
from repro.api.core import recording_start_body, trace_from_stop_payload
from repro.api.envelopes import (
    BatchResult,
    ErrorEnvelope,
    MetricsSnapshot,
    QueryRequest,
    QueryResponse,
    as_request,
)
from repro.errors import ProtocolError, ServerError
from repro.obs.recorder import get_recorder
from repro.obs.trace import Span, TraceContext, new_span_id, new_trace_id
from repro.query_model import QueryType

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (replay.py imports us)
    from repro.workload.workload import Workload


class RemoteGraphService:
    """Blocking HTTP :class:`GraphService` backend (keep-alive per thread)."""

    backend = "remote-sync"

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        trace_sample_rate: float = 0.0,
    ) -> None:
        if not (0.0 <= trace_sample_rate <= 1.0):
            raise ProtocolError("trace_sample_rate must be between 0 and 1")
        #: Fraction of queries this client originates a trace for.  The
        #: sampled trace ids come back on the response, so callers can
        #: correlate with the server's ``/debug/traces``.
        self.trace_sample_rate = trace_sample_rate
        # dedicated RNG: sampling must not perturb seeded workload streams
        self._sample_rng = random.Random(uuid.uuid4().int)
        self.host = host
        self.port = port
        self.timeout = timeout
        # one keep-alive connection per calling thread, keyed by the thread:
        # close_all() can reach every one of them, and a thread that ended
        # without close() has its connection closed when the next one opens
        self._connections: dict[threading.Thread, http.client.HTTPConnection] = {}
        self._connections_lock = threading.Lock()

    @classmethod
    def for_server(cls, server, **kwargs) -> "RemoteGraphService":
        """Client bound to an in-process :class:`QueryServer`."""
        return cls(server.host, server.port, **kwargs)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        me = threading.current_thread()
        connection = self._connections.get(me)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            with self._connections_lock:
                for thread in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(thread).close()
                self._connections[me] = connection
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

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        """One raw JSON request/response exchange: ``(http_status, payload)``.

        The transport hook the process shard backend drives its workers
        through (queries *and* admin endpoints); same retry semantics as
        every other call — a stale keep-alive connection is retried once, a
        timeout always propagates.
        """
        status, data = self._exchange(method, path, core.encode_body(body))
        return status, core.decode_body(data)

    def _ok(self, method: str, path: str, body: dict | None = None) -> dict:
        return core.expect_ok(path, *self.request(method, path, body))

    def close(self) -> None:
        """Drop this thread's connection (others close on their own threads)."""
        with self._connections_lock:
            connection = self._connections.pop(threading.current_thread(), None)
        if connection is not None:
            connection.close()

    def close_all(self) -> None:
        """Close every thread's connection: the peer is gone, nothing is in flight."""
        with self._connections_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "RemoteGraphService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # client-side trace sampling
    # ------------------------------------------------------------------ #
    def _sampled(self) -> bool:
        rate = self.trace_sample_rate
        if rate <= 0.0:
            return False
        return rate >= 1.0 or self._sample_rng.random() < rate

    @contextmanager
    def _client_span(self, request: QueryRequest):
        """Originate a trace around one ``/query`` exchange when sampled.

        When client-side sampling fires (and the request doesn't already
        carry a context) a fresh trace is started: the context rides the
        envelope so the server parents its own spans under it, and on exit
        a ``client.request`` root span lands in the local span recorder.
        """
        if request.trace is not None or not self._sampled():
            yield
            return
        context = TraceContext(trace_id=new_trace_id(), span_id=new_span_id())
        request.trace = context
        started_wall = time.time()
        started = time.perf_counter()
        try:
            yield
        finally:
            get_recorder().record(Span(
                trace_id=context.trace_id, span_id=context.span_id,
                name="client.request", start=started_wall,
                duration_seconds=time.perf_counter() - started,
                attributes={"request_id": request.request_id},
            ))

    # ------------------------------------------------------------------ #
    # GraphService surface
    # ------------------------------------------------------------------ #
    def send(self, query, query_type: QueryType | str = QueryType.SUBGRAPH) -> tuple[int, dict]:
        """POST one query; returns the raw ``(http_status, payload)``.

        A sampled query originates a trace around the exchange (see
        :meth:`_client_span`).
        """
        request = as_request(query, query_type)
        with self._client_span(request):
            return self.request("POST", "/query", request.to_wire())

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
        body = core.batch_body(queries, deadline_seconds, priority)
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
