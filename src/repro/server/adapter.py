"""The one HTTP adapter: sockets on one side, a route table on the other.

Everything this repository serves over HTTP — the public
:class:`~repro.server.app.QueryServer` and every process shard's
:class:`~repro.sharding.worker.ShardWorkerApp` — is a :class:`RoutedApp`: a
table of ``(method, path)`` → endpoint behind one
:meth:`RoutedApp.handle` entry that returns a *reply value*
``(status, body)``.  The body's type picks the framing: a ``dict`` is a JSON
document, a ``str`` is Prometheus text, any other iterable is a stream of
NDJSON lines.  Endpoints never see a socket, so they are testable without one.

Three layers, each usable alone:

* :meth:`RoutedApp.handle` — route an already-parsed request;
* :func:`respond` — bytes in, reply value out (JSON decoding and its 400);
* :class:`HTTPAdapter` — the stdlib ``http.server`` transport (body reading,
  reply framing, keep-alive, ``TCP_NODELAY``).  Another transport (an asyncio
  front end) is a second adapter over :func:`respond`, not a second stack.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

#: What an endpoint returns: an HTTP status and a dict / str / line iterable.
Reply = tuple[int, object]


class RoutedApp:
    """An application as a route table behind one ``handle`` entry."""

    #: The ``Server`` response header.
    server_version = "GraphCache"

    #: ``(method, path)`` → ``endpoint(app, params, payload) -> Reply``.
    #: ``params`` is the parsed query string (``parse_qs`` shape), ``payload``
    #: the decoded JSON body (``None`` for a GET).  Endpoints are looked up on
    #: the app *at call time*, so instrumentation that patches a method on
    #: the class is honoured.
    routes: dict[tuple[str, str], Callable[..., Reply]] = {}

    def handle(self, method: str, path: str, params: dict, payload: object) -> Reply:
        """Route one parsed request to its endpoint; unknown routes are 404."""
        endpoint = self.routes.get((method, path))
        if endpoint is None:
            return 404, {"error": f"unknown path {path!r}"}
        return endpoint(self, params, payload)


def respond(app: RoutedApp, method: str, target: str, raw: bytes | None) -> Reply:
    """One request as the transport read it → the app's reply value.

    ``target`` is the request target (path plus optional query string);
    ``raw`` is the request body (``None`` when the method carries none, an
    empty body reads as ``{}``).
    """
    payload = None
    if raw is not None:
        try:
            payload = json.loads(raw or b"{}")
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            return 400, {"error": f"malformed JSON body: {exc}"}
    path, _, query = target.partition("?")
    return app.handle(method, path, parse_qs(query) if query else {}, payload)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: clients and pools reuse connections
    # headers and body flush as separate small writes; without NODELAY,
    # Nagle + delayed ACK can stall responses ~40ms even on loopback
    disable_nagle_algorithm = True

    def version_string(self) -> str:
        return f"{self.server.app.server_version} {self.sys_version}"

    def do_GET(self) -> None:
        self._reply(*respond(self.server.app, "GET", self.path, None))

    def do_POST(self) -> None:
        # always consume the body: keep-alive framing breaks otherwise
        try:
            raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        except ValueError:
            self._reply(400, {"error": "bad Content-Length header"})
            return
        self._reply(*respond(self.server.app, "POST", self.path, raw))

    def _reply(self, status: int, body) -> None:
        if isinstance(body, dict):
            self._reply_bytes(status, "application/json",
                              json.dumps(body).encode("utf-8"))
        elif isinstance(body, str):
            self._reply_bytes(status, "text/plain; version=0.0.4",
                              body.encode("utf-8"))
        else:
            self._reply_stream(status, body)

    def _reply_bytes(self, status: int, content_type: str, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _reply_stream(self, status: int, lines) -> None:
        """Stream NDJSON lines as the app produces them.

        Lines arrive in completion order, so Content-Length is unknown up
        front: the response is framed by connection close instead — the one
        framing every HTTP/1.x client understands without chunked-decoding
        support.
        """
        self.send_response(status)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        for item in lines:
            self.wfile.write(json.dumps(item).encode("utf-8") + b"\n")
            self.wfile.flush()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # requests are accounted by the app's own counters, not on stderr


class HTTPAdapter(ThreadingHTTPServer):
    """The stdlib transport: one thread per connection, sized for thousands.

    The async client opens connections in bursts, so the listen backlog must
    be far deeper than :mod:`socketserver`'s default of 5 or a warm-up wave
    gets connection-refused before a single request is sent.
    """

    daemon_threads = True
    request_queue_size = 1024

    def __init__(self, address: tuple[str, int], app: RoutedApp) -> None:
        self.app = app
        super().__init__(address, _Handler)
