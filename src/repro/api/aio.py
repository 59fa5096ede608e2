"""AsyncRemoteGraphService: the asyncio backend + open-loop load generator.

The ROADMAP's "async client" item: the thread-per-connection sync replay
tops out around hundreds of connections (one OS thread each); this backend
holds *thousands* of concurrent keep-alive connections in one process on a
single event loop.  Stdlib only — the HTTP/1.1 client is hand-rolled over
``asyncio.open_connection`` (the server always frames responses with
``Content-Length``, so parsing is a status line + headers + exact read).

Connections live in a bounded pool: a request checks one out (opening lazily
up to ``max_connections``), sends, reads, and parks it back idle.  ``warm``
pre-opens a given number of connections so a load test measurably *holds*
them; ``pool_stats`` reports open/peak-open/in-flight/peak-in-flight
counters the benchmarks assert on.

:func:`replay_trace_async` mirrors :func:`repro.workload.replay.replay_trace`
(same :class:`ReplayResult`, same open-loop release schedule) but issues
every query as an asyncio task multiplexed over the pool — thousands of
in-flight queries cost coroutines, not threads.  :func:`replay_trace_async_blocking`
wraps it in ``asyncio.run`` for sync callers (the CLI's ``loadgen --async-client``).
"""

from __future__ import annotations

import asyncio
import socket
import time

from repro.api import core
from repro.api.envelopes import (
    BatchResult,
    ErrorEnvelope,
    MetricsSnapshot,
    QueryResponse,
    as_request,
)
from repro.errors import ProtocolError, ServerError, WorkloadError
from repro.query_model import QueryType
from repro.workload.replay import ReplayEvent, ReplayResult, replay_queries
from repro.workload.workload import Workload


class _Connection:
    """One keep-alive HTTP/1.1 connection (reader/writer pair)."""

    __slots__ = ("reader", "writer")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def begin(self, method: str, path: str, host_header: str,
                    body: bytes | None = None) -> tuple[int, dict[str, str]]:
        """Send one request and read the response head: (status, headers)."""
        head = [f"{method} {path} HTTP/1.1", f"Host: {host_header}"]
        if body is not None:
            head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(body)}")
        else:
            head.append("Content-Length: 0")
        raw = ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + (body or b"")
        self.writer.write(raw)
        await self.writer.drain()

        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise ProtocolError(f"malformed HTTP status line: {status_line!r}")
        headers: dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError("connection closed mid-headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(parts[1]), headers

    async def body(self, headers: dict[str, str]) -> bytes:
        """The ``Content-Length``-framed response body that follows the head."""
        length = int(headers.get("content-length", "0"))
        return await self.reader.readexactly(length) if length else b""

    async def request(self, method: str, path: str, host_header: str,
                      body: bytes | None = None) -> tuple[int, bytes, bool]:
        """One request/response exchange; returns (status, body, reusable)."""
        status, headers = await self.begin(method, path, host_header, body)
        reusable = headers.get("connection", "keep-alive").lower() != "close"
        return status, await self.body(headers), reusable

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # pragma: no cover - best-effort socket teardown
            pass


class AsyncRemoteGraphService(core.ClientCore):
    """Async HTTP :class:`GraphService` backend with a connection pool."""

    backend = "remote-async"

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        max_connections: int = 1024,
        trace_sample_rate: float = 0.0,
    ) -> None:
        if max_connections < 1:
            raise ServerError("max_connections must be at least 1")
        super().__init__(trace_sample_rate)
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_connections = max_connections
        self._idle: list[_Connection] = []
        self._capacity: asyncio.Semaphore | None = None  # bound to the running loop
        self._closed = False
        # pool observability (asserted on by the S4 benchmark)
        self.open_connections = 0
        self.peak_open_connections = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.requests_sent = 0
        self.reconnects = 0

    @classmethod
    def for_server(cls, server, **kwargs) -> "AsyncRemoteGraphService":
        """Client bound to an in-process :class:`QueryServer`."""
        return cls(server.host, server.port, **kwargs)

    # ------------------------------------------------------------------ #
    # connection pool
    # ------------------------------------------------------------------ #
    def _semaphore(self) -> asyncio.Semaphore:
        if self._capacity is None:
            self._capacity = asyncio.Semaphore(self.max_connections)
        return self._capacity

    async def _open(self) -> _Connection:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), timeout=self.timeout
        )
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # request head and body go out as separate writes; without
            # NODELAY, Nagle holds the second one for the peer's delayed
            # ACK (~40ms per request, even on loopback)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.open_connections += 1
        self.peak_open_connections = max(self.peak_open_connections, self.open_connections)
        return _Connection(reader, writer)

    async def _acquire(self) -> _Connection:
        if self._closed:
            raise ServerError("async client is closed")
        await self._semaphore().acquire()
        try:
            connection = self._idle.pop() if self._idle else await self._open()
        except BaseException:
            self._semaphore().release()
            raise
        # counted only while a connection is held: waiters queued on the
        # pool semaphore are not "in flight" (peak stays <= pool size)
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        return connection

    def _release(self, connection: _Connection, reusable: bool) -> None:
        self.in_flight -= 1
        if reusable and not self._closed:
            self._idle.append(connection)
        else:
            connection.close()
            self.open_connections -= 1
        self._semaphore().release()

    async def warm(self, count: int, concurrency: int = 64) -> int:
        """Pre-open ``count`` keep-alive connections and park them idle.

        Opens in bounded waves so a large warm-up doesn't overflow the
        server's listen backlog.  Returns the number of connections open
        afterwards; this is how a load test *holds* N connections while the
        open-loop schedule multiplexes queries over them.
        """
        count = min(count, self.max_connections)
        gate = asyncio.Semaphore(concurrency)

        async def open_one() -> None:
            async with gate:
                self._idle.append(await self._open())

        need = count - self.open_connections
        if need > 0:
            await asyncio.gather(*(open_one() for _ in range(need)))
        return self.open_connections

    def pool_stats(self) -> dict:
        """Pool counters (open/peak/in-flight) for benchmarks and reports."""
        return {
            "open_connections": self.open_connections,
            "peak_open_connections": self.peak_open_connections,
            "idle_connections": len(self._idle),
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
            "requests_sent": self.requests_sent,
            "reconnects": self.reconnects,
            "max_connections": self.max_connections,
        }

    async def aclose(self) -> None:
        """Close every idle connection and refuse further requests."""
        self._closed = True
        while self._idle:
            connection = self._idle.pop()
            connection.close()
            self.open_connections -= 1

    async def __aenter__(self) -> "AsyncRemoteGraphService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    async def _exchange(self, method: str, path: str,
                        body: bytes | None = None) -> tuple[int, bytes]:
        """One bytes-level request/response over a pooled connection."""
        host_header = f"{self.host}:{self.port}"
        for attempt in (0, 1):
            connection = await self._acquire()
            try:
                status, data, reusable = await asyncio.wait_for(
                    connection.request(method, path, host_header, body),
                    timeout=self.timeout,
                )
            except asyncio.TimeoutError:
                # the server may still be executing the request: retrying
                # would run the query twice, so timeouts always propagate
                self._release(connection, reusable=False)
                raise TimeoutError(f"{method} {path} timed out") from None
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                # stale keep-alive connection (server closed it between
                # requests, before processing anything): retry once
                self._release(connection, reusable=False)
                self.reconnects += 1
                if attempt:
                    raise
            except BaseException:
                # anything else (malformed response, cancellation): the
                # connection state is unknown — drop it, free the slot
                self._release(connection, reusable=False)
                raise
            else:
                self.requests_sent += 1
                self._release(connection, reusable)
                return status, data
        raise ServerError("unreachable")  # pragma: no cover

    async def request(self, method: str, path: str,
                      body: dict | None = None) -> tuple[int, dict]:
        """One raw JSON request/response exchange over the pool.

        Same retry semantics as every other call — stale keep-alive
        connections are retried once, timeouts always propagate.
        """
        status, data = await self._exchange(method, path, core.encode_body(body))
        return status, core.decode_body(data)

    async def _ok(self, method: str, path: str, body: dict | None = None) -> dict:
        return core.expect_ok(path, *await self.request(method, path, body))

    # ------------------------------------------------------------------ #
    # GraphService surface (await-shaped)
    # ------------------------------------------------------------------ #
    async def send(self, query,
                   query_type: QueryType | str = QueryType.SUBGRAPH) -> tuple[int, dict]:
        """POST one query; returns the raw ``(http_status, payload)``.

        A sampled query originates a trace around the exchange (see
        :meth:`ClientCore._client_span`), exactly as in the sync backend.
        """
        request = as_request(query, query_type)
        with self._client_span(request):
            return await self.request("POST", "/query", request.to_wire())

    async def run(self, query,
                  query_type: QueryType | str = QueryType.SUBGRAPH) -> QueryResponse:
        """Execute one query, raising the typed error on any failure."""
        return core.response_from(*await self.send(query, query_type))

    async def run_batch(self, queries, concurrency: int | None = None) -> BatchResult:
        """Execute queries concurrently over the pool; per-item outcomes."""
        requests = [as_request(query) for query in queries]
        limit = self.max_connections if concurrency is None else concurrency
        if limit < 1:
            raise ServerError("concurrency must be at least 1")
        gate = asyncio.Semaphore(limit)

        async def execute(request):
            async with gate:
                try:
                    return await self.run(request)
                except Exception as exc:
                    return ErrorEnvelope.from_exception(
                        exc, request_id=request.request_id)

        items = await asyncio.gather(*(execute(request) for request in requests))
        return BatchResult(items=list(items))

    async def stream_batch(self, queries, deadline_seconds: float | None = None,
                           priority: int | None = None):
        """Submit a whole batch over one ``POST /batch``; yield as they finish.

        The async twin of :meth:`RemoteGraphService.stream_batch`: one
        connection, one submission round-trip, per-query NDJSON lines back
        in the server's completion order, yielded as ``(index, outcome)``
        pairs.  The response is framed by connection close, so the
        connection is checked out of the pool for the whole stream and
        dropped (never re-parked) afterwards.
        """
        body = core.batch_body(queries, deadline_seconds, priority)
        connection = await self._acquire()
        try:
            status, headers = await asyncio.wait_for(
                connection.begin("POST", "/batch", f"{self.host}:{self.port}", body),
                timeout=self.timeout)
            if status != 200:
                core.raise_batch_refusal(status, await connection.body(headers))
            self.requests_sent += 1
            while True:
                line = await asyncio.wait_for(
                    connection.reader.readline(), timeout=self.timeout)
                if not line:  # EOF: server closed — the batch is complete
                    break
                pair = core.batch_line(line)
                if pair is not None:
                    yield pair
        finally:
            self._release(connection, reusable=False)  # close-framed: never reuse

    async def run_batch_streamed(self, queries,
                                 deadline_seconds: float | None = None,
                                 priority: int | None = None) -> BatchResult:
        """:meth:`stream_batch`, gathered back into submission order."""
        queries = list(queries)
        return core.gather_batch(len(queries), [
            pair async for pair in self.stream_batch(
                queries, deadline_seconds=deadline_seconds, priority=priority)])

    async def metrics(self) -> MetricsSnapshot:
        return MetricsSnapshot.from_wire(await self._ok("GET", "/metrics"))

    async def stats(self) -> dict:
        return await self._ok("GET", "/stats")

    async def health(self) -> dict:
        return await self._ok("GET", "/health")

    async def debug_traces(self, trace_id: str | None = None,
                           sort: str = "recent", count: int = 10) -> dict:
        """Fetch span trees from ``GET /debug/traces``."""
        return await self._ok("GET", core.debug_traces_path(trace_id, sort, count))

    async def metrics_text(self) -> str:
        """The Prometheus-style text exposition (``/metrics?format=text``)."""
        path = core.METRICS_TEXT_PATH
        return core.text_from(path, *await self._exchange("GET", path))

    # ------------------------------------------------------------------ #
    # server-side trace recording
    # ------------------------------------------------------------------ #
    async def start_recording(self, name: str | None = None,
                              path: str | None = None) -> dict:
        return await self._ok("POST", "/record/start",
                              core.recording_start_body(name, path))

    async def stop_recording(self) -> Workload:
        return core.trace_from_stop_payload(await self._ok("POST", "/record/stop", {}))


# ---------------------------------------------------------------------- #
# open-loop async trace replay
# ---------------------------------------------------------------------- #
async def replay_trace_async(
    service: AsyncRemoteGraphService,
    trace: Workload,
    target_qps: float | None = None,
    concurrency: int | None = None,
    warm_connections: int | None = None,
    deadline_seconds: float | None = None,
    priority_mix: str | list[tuple[int, float]] | None = None,
) -> ReplayResult:
    """Replay ``trace`` through the async client, one task per query.

    Mirrors :func:`repro.workload.replay.replay_trace` exactly — same
    open-loop release schedule (query *i* is released at ``i / target_qps``
    seconds), same :class:`ReplayResult` — but concurrency costs coroutines,
    not threads, so one process holds thousands of connections.

    ``concurrency`` bounds in-flight queries (default: the pool size);
    ``warm_connections`` pre-opens that many keep-alive connections before
    the clock starts, so the run *holds* them for its whole duration.
    ``deadline_seconds``/``priority_mix`` stamp the serving fields on
    every request exactly as in the sync replay (same deterministic
    priority assignment).
    """
    queries = replay_queries(trace, target_qps, deadline_seconds, priority_mix)
    limit = service.max_connections if concurrency is None else concurrency
    if limit < 1:
        raise WorkloadError("concurrency must be at least 1")
    if warm_connections:
        await service.warm(warm_connections)
    events: list[ReplayEvent | None] = [None] * len(queries)
    gate = asyncio.Semaphore(limit)
    start = time.perf_counter()

    async def one(index: int) -> None:
        if target_qps is not None:
            delay = (start + index / target_qps) - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        async with gate:
            sent = time.perf_counter()
            try:
                outcome = await service.send(queries[index])
            except Exception as exc:
                outcome = exc
            events[index] = ReplayEvent.observed(
                index, queries[index], time.perf_counter() - sent, outcome)

    await asyncio.gather(*(one(index) for index in range(len(queries))))
    return ReplayResult(
        trace_name=trace.name,
        events=[event for event in events if event is not None],
        elapsed_seconds=time.perf_counter() - start,
        target_qps=target_qps,
        num_threads=1,
        num_connections=service.peak_open_connections,
    )


def replay_trace_async_blocking(
    host: str,
    port: int,
    trace: Workload,
    target_qps: float | None = None,
    max_connections: int = 1024,
    warm_connections: int | None = None,
    timeout: float = 60.0,
    deadline_seconds: float | None = None,
    priority_mix: str | list[tuple[int, float]] | None = None,
) -> ReplayResult:
    """Sync entry point for the async replay (builds its own event loop)."""

    async def main() -> ReplayResult:
        async with AsyncRemoteGraphService(
            host, port, timeout=timeout, max_connections=max_connections
        ) as service:
            return await replay_trace_async(
                service, trace, target_qps=target_qps,
                warm_connections=warm_connections,
                deadline_seconds=deadline_seconds,
                priority_mix=priority_mix,
            )

    return asyncio.run(main())
