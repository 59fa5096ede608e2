"""Sans-IO client core: every wire decision the remote clients share.

:class:`~repro.api.remote.RemoteGraphService` (``http.client``, one
keep-alive connection per thread) and
:class:`~repro.api.aio.AsyncRemoteGraphService` (asyncio streams, pooled)
differ only in *transport*: how bytes reach the server, when a connection is
retried, how a stream is read.  Everything else lives here and never touches
a socket: trace sampling and the ``client.request`` span, request → wire
body, ``(status, payload)`` → typed response or typed raise, the ``/batch``
body + NDJSON lines + in-order gather, the ``/debug/traces`` path, the
200-check and the text exposition.  There is one wire version: a client sends
the envelope and reads the envelope back.  A wire change is therefore written
once and cannot skew one backend against the other.
"""

from __future__ import annotations

import json
import random
import time
import uuid
from contextlib import contextmanager
from typing import TYPE_CHECKING
from urllib.parse import urlencode

from repro.api.envelopes import (
    BatchResult,
    ErrorEnvelope,
    QueryRequest,
    QueryResponse,
    PROTOCOL_VERSION,
    as_request,
    parse_response,
)
from repro.errors import ProtocolError, ServerError
from repro.obs.recorder import get_recorder
from repro.obs.trace import Span, TraceContext, new_span_id, new_trace_id

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (replay.py imports us)
    from repro.workload.workload import Workload

#: ``GET`` target of the Prometheus-style text exposition.
METRICS_TEXT_PATH = "/metrics?format=text"


# ---------------------------------------------------------------------- #
# bytes <-> JSON (the layer above a transport's bytes-level exchange)
# ---------------------------------------------------------------------- #
def encode_body(body: dict | None) -> bytes | None:
    """The request body bytes for a JSON payload (``None`` = no body)."""
    return json.dumps(body).encode("utf-8") if body is not None else None


def decode_body(data: bytes) -> dict:
    """The JSON payload of a response body (empty body = ``{}``)."""
    return json.loads(data) if data else {}


def expect_ok(path: str, status: int, payload):
    """The payload of a reply that must be a 200 (else :class:`ServerError`)."""
    if status != 200:
        raise ServerError(f"{path} replied {status}: {payload}")
    return payload


def text_from(path: str, status: int, data: bytes) -> str:
    """The text of a plain-text reply that must be a 200."""
    if status != 200:
        raise ServerError(f"{path} replied {status}")
    return data.decode("utf-8")


# ---------------------------------------------------------------------- #
# queries and batches
# ---------------------------------------------------------------------- #
def response_from(status: int, payload: dict) -> QueryResponse:
    """The typed response of a ``/query`` reply; failures raise typed errors."""
    outcome = parse_response(payload, http_status=status)
    if isinstance(outcome, ErrorEnvelope):
        raise outcome.to_exception()
    return outcome


def batch_body(queries, deadline_seconds: float | None = None,
               priority: int | None = None) -> bytes:
    """The ``POST /batch`` request body for ``queries``.

    ``deadline_seconds`` / ``priority`` apply to every query that doesn't
    already carry its own.
    """
    requests = []
    for query in queries:
        request = as_request(query)
        if deadline_seconds is not None and request.deadline_seconds is None:
            request.deadline_seconds = deadline_seconds
        if priority is not None and not request.priority:
            request.priority = priority
        requests.append(request)
    return encode_body({
        "version": PROTOCOL_VERSION,
        "queries": [request.to_wire() for request in requests],
    })


def raise_batch_refusal(status: int, data: bytes) -> None:
    """Raise what a non-200 ``/batch`` reply means (the typed error if any)."""
    payload = decode_body(data)
    response_from(status, payload)
    raise ServerError(f"/batch replied {status}: {payload}")


def batch_line(line: bytes):
    """One NDJSON ``/batch`` line → ``(index, outcome)`` (blank → ``None``)."""
    line = line.strip()
    if not line:
        return None
    payload = json.loads(line)
    index = payload.pop("index", None)
    if not isinstance(index, int):
        raise ProtocolError(f"batch result line without an index: {payload!r}")
    return index, parse_response(payload)


def gather_batch(count: int, pairs) -> BatchResult:
    """Streamed ``(index, outcome)`` pairs, back in submission order."""
    items: list = [None] * count
    for index, outcome in pairs:
        if 0 <= index < count:
            items[index] = outcome
    for index, item in enumerate(items):
        if item is None:  # the server never answered this index
            items[index] = ErrorEnvelope.from_exception(
                ServerError(f"no batch result line for index {index}"))
    return BatchResult(items=items)


# ---------------------------------------------------------------------- #
# observability and recording endpoints
# ---------------------------------------------------------------------- #
def debug_traces_path(trace_id: str | None = None, sort: str = "recent",
                      count: int = 10) -> str:
    """The ``GET /debug/traces`` target (arguments URL-encoded)."""
    if trace_id is not None:
        return f"/debug/traces?{urlencode({'trace_id': trace_id})}"
    return f"/debug/traces?{urlencode({'sort': sort, 'count': count})}"


def recording_start_body(name: str | None, path: str | None) -> dict:
    """The ``POST /record/start`` request body."""
    body: dict = {}
    if name is not None:
        body["name"] = name
    if path is not None:
        body["path"] = str(path)
    return body


def trace_from_stop_payload(payload: dict) -> "Workload":
    """The recorded trace a ``POST /record/stop`` reply describes."""
    from repro.workload.workload import Workload

    if payload.get("trace") is not None:
        return Workload.from_dict(payload["trace"])
    path = payload.get("path")
    if path is None:
        raise ServerError(f"malformed /record/stop payload: {payload!r}")
    return Workload.load(path)


# ---------------------------------------------------------------------- #
# per-client state: trace sampling
# ---------------------------------------------------------------------- #
class ClientCore:
    """What a remote client remembers between requests — no transport."""

    def __init__(self, trace_sample_rate: float) -> None:
        if not (0.0 <= trace_sample_rate <= 1.0):
            raise ProtocolError("trace_sample_rate must be between 0 and 1")
        #: Fraction of queries this client originates a trace for.  The
        #: sampled trace ids come back on the response, so callers can
        #: correlate with the server's ``/debug/traces``.
        self.trace_sample_rate = trace_sample_rate
        # dedicated RNG: sampling must not perturb seeded workload streams
        self._sample_rng = random.Random(uuid.uuid4().int)

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
