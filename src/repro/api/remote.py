"""RemoteGraphService: the one remote backend of the service boundary.

A blocking client speaking the envelope protocol against a
:class:`~repro.server.app.QueryServer` — or, as the process shard backend's
transport, against a shard worker.  One keep-alive socket per calling
thread: a thread-per-connection load generator (:func:`replay_trace`, up to
a thousand threads in the tests), or a scatter-pool slot, pays no TCP
handshake per query and never shares a connection with a sibling.  Each
request goes out in one write and its reply is read with the same minimal
HTTP/1.1 reader the server frames requests with
(:func:`repro.api.core.read_head`), its body by ``Content-Length`` — a reply
that declares none is a framing error, never a read to close.  The wire
decisions that need no socket are the functions of :mod:`repro.api.core`;
this class adds the transport and client-side trace sampling.

Every transport failure is an :class:`OSError`: the socket's own errors,
:class:`TimeoutError`, and :class:`WireError` for a reply that breaks HTTP/1.1
framing (closed before its status line, truncated, malformed, no
``Content-Length``).  A failure other than a timeout reconnects and re-sends
once — the peer closed a stale keep-alive connection between requests; a
timeout always propagates.

``close()`` drops the calling thread's connection only (other threads may be
mid-request on theirs); ``close_all()`` is for an owner that has stopped the
peer and must leave no socket to it behind.

Errors come back as the same typed :mod:`repro.errors` exceptions an
in-process system raises, reconstructed from the wire taxonomy — a 429 raises
:class:`AdmissionRejectedError` with its ``queue_depth`` attribute intact,
never parsed from message text.
"""

from __future__ import annotations

import random
import socket
import threading
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
from repro.obs.recorder import SpanScope, sampled
from repro.query_model import QueryType

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (replay.py imports us)
    from repro.workload.workload import Workload


class WireError(ConnectionError):
    """A reply that breaks HTTP/1.1 framing: closed early, truncated, malformed
    or without a ``Content-Length``."""


class _Connection:
    """One keep-alive socket to the peer and the reader its replies arrive on."""

    __slots__ = ("sock", "reader", "_host")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self._host = f"{host}:{port}"

    def exchange(self, method: str, target: str,
                 body: bytes | None) -> tuple[int, bytes, bool]:
        """One request out in one ``sendall``, its reply in.

        Returns ``(status, body, keep-alive)``; the reply body is framed by
        its ``Content-Length``, and a reply without one is a
        :class:`WireError`.
        """
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.sock.sendall((head + "\r\n").encode("latin-1") + (body or b""))
        try:
            reply = core.read_head(self.reader)
        except ValueError as exc:
            raise WireError(f"malformed reply: {exc}") from None
        if reply is None:
            raise WireError("the peer closed the connection without replying")
        start, headers = reply
        if (len(start) < 2 or not start[0].startswith("HTTP/1.")
                or not start[1].isdecimal()):
            raise WireError(f"malformed status line {' '.join(start)!r}")
        if "transfer-encoding" in headers:
            raise WireError("a chunked reply: bodies are framed by Content-Length")
        try:
            length = core.content_length(headers)
        except ValueError as exc:
            raise WireError(str(exc)) from None
        if length is None:
            raise WireError("a reply without Content-Length")
        data = self.reader.read(length)
        if len(data) < length:
            raise WireError(f"reply truncated: {len(data)} of {length} bytes")
        return int(start[1]), data, core.keeps_alive(start[0], headers)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


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
        self._connections: dict[threading.Thread, _Connection] = {}
        self._connections_lock = threading.Lock()

    @classmethod
    def for_server(cls, server, **kwargs) -> "RemoteGraphService":
        """Client bound to an in-process :class:`QueryServer`."""
        return cls(server.host, server.port, **kwargs)

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> _Connection:
        me = threading.current_thread()
        connection = self._connections.get(me)
        if connection is None:
            connection = _Connection(self.host, self.port, self.timeout)
            with self._connections_lock:
                for thread in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(thread).close()
                self._connections[me] = connection
        return connection

    def _exchange(self, method: str, path: str,
                  body: bytes | None = None) -> tuple[int, bytes]:
        """One bytes-level request/response over this thread's connection."""
        for attempt in (0, 1):
            try:
                connection = self._connection()
                status, data, keep_alive = connection.exchange(method, path, body)
            except TimeoutError:
                # the server may still be executing the request: retrying a
                # POST would run the query twice (double-counted statistics),
                # so timeouts always propagate
                self.close()
                raise
            except OSError:
                # stale keep-alive connection (server closed it between
                # requests, before processing anything): reconnect once
                self.close()
                if attempt:
                    raise
                continue
            if not keep_alive:
                self.close()
            return status, data
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
    @contextmanager
    def _client_span(self, request: QueryRequest):
        """Originate a trace around one ``/query`` exchange when sampled.

        When client-side sampling fires (and the request doesn't already
        carry a context) a ``client.request`` scope opens a fresh trace: its
        context rides the envelope so the server parents its own spans under
        it, and on exit the span lands in the local span recorder.
        """
        if request.trace is not None or not sampled(self.trace_sample_rate,
                                                    self._sample_rng):
            yield
            return
        scope = SpanScope("client.request")
        request.trace = scope.context
        try:
            yield
        finally:
            scope.close({"request_id": request.request_id})

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
