"""Sans-IO wire functions of the remote client, and the HTTP/1.1 head reader.

Everything :class:`~repro.api.remote.RemoteGraphService` decides about the
wire that does not need a socket lives here: request → wire body,
``(status, payload)`` → typed response or typed raise, the ``/debug/traces``
path, the 200-check and the text exposition.  There is one wire version: a
client sends the envelope and reads the envelope back.  Keeping these
functions free of transport lets tests drive the wire format without a
server, and lets the process shard backend read worker replies with the same
checks.

Both ends of a hop — :class:`~repro.server.adapter.HTTPAdapter` reading a
request, the client reading a reply — frame messages with the same minimal
HTTP/1.1 reader: :func:`read_head` (start line + headers off any buffered
reader, bounded), :func:`content_length` and :func:`keeps_alive`.  Bodies
are framed by ``Content-Length`` only; chunked transfer coding and
read-to-close are not spoken.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING
from urllib.parse import urlencode

from repro.api.envelopes import ErrorEnvelope, QueryResponse, parse_response
from repro.errors import ServerError

if TYPE_CHECKING:  # pragma: no cover - runtime import is lazy (replay.py imports us)
    from repro.workload.workload import Workload

#: ``GET`` target of the Prometheus-style text exposition.
METRICS_TEXT_PATH = "/metrics?format=text"

#: Longest start line or header line either end reads, in bytes.
MAX_LINE_BYTES = 65536

#: Most header lines one message may carry.
MAX_HEADERS = 100


# ---------------------------------------------------------------------- #
# HTTP/1.1 framing (both ends of a hop)
# ---------------------------------------------------------------------- #
def read_head(reader) -> tuple[list[str], dict[str, str]] | None:
    """Read one message head — start line and headers — off ``reader``.

    Returns the start line split in at most three words and the headers by
    lower-cased name (a repeated header's values joined with ``", "``), or
    ``None`` when the peer closed before sending a start line.  Raises
    :class:`ValueError` naming what broke the framing: an over-long line,
    too many headers, a header without a colon, or a close inside the head.
    """
    line = reader.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ValueError(f"start line longer than {MAX_LINE_BYTES} bytes")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        raw = reader.readline(MAX_LINE_BYTES + 1)
        if raw in (b"\r\n", b"\n"):
            return line.decode("latin-1").strip().split(None, 2), headers
        if not raw:
            raise ValueError("connection closed inside the message head")
        if len(raw) > MAX_LINE_BYTES:
            raise ValueError(f"header line longer than {MAX_LINE_BYTES} bytes")
        name, colon, value = raw.decode("latin-1").partition(":")
        if not colon:
            raise ValueError(f"header line without a colon: {raw[:40]!r}")
        name, value = name.strip().lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise ValueError(f"more than {MAX_HEADERS} header lines")


def content_length(headers: dict[str, str]) -> int | None:
    """The body length a head declares (``None`` when it declares none).

    Anything but one non-negative decimal integer — a sign, a fraction, the
    header repeated — is a :class:`ValueError`.
    """
    value = headers.get("content-length")
    if value is None:
        return None
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"bad Content-Length {value!r}")
    return int(value)


def keeps_alive(version: str, headers: dict[str, str]) -> bool:
    """Whether the connection stays open after this message (HTTP/1.1 default)."""
    return version == "HTTP/1.1" and "close" not in headers.get("connection", "").lower()


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
# queries
# ---------------------------------------------------------------------- #
def response_from(status: int, payload: dict) -> QueryResponse:
    """The typed response of a ``/query`` reply; failures raise typed errors."""
    outcome = parse_response(payload, http_status=status)
    if isinstance(outcome, ErrorEnvelope):
        raise outcome.to_exception()
    return outcome


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

