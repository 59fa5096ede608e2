"""The one HTTP adapter: sockets on one side, a route table on the other.

Everything this repository serves over HTTP — the public
:class:`~repro.server.app.QueryServer` and every process shard's
:class:`~repro.sharding.worker.ShardWorkerApp` — is a :class:`RoutedApp`: a
table of ``(method, path)`` → endpoint behind one
:meth:`RoutedApp.handle` entry that returns a *reply value*
``(status, body)``.  The body is a ``dict`` (a JSON document) or a ``str``
(Prometheus text); either goes out framed by ``Content-Length``.  Endpoints
never see a socket, so they are testable without one.

Three layers, each callable on its own:

* :meth:`RoutedApp.handle` — route an already-parsed request;
* :func:`respond` — bytes in, reply value out (JSON decoding and its 400);
* :class:`HTTPAdapter` — the transport: a :mod:`socketserver` accept loop,
  one thread per connection, and a minimal HTTP/1.1 reader
  (:func:`repro.api.core.read_head`, the same one the client reads replies
  with).  It takes the body by ``Content-Length`` (a negative or malformed
  length is a 400, one over :data:`MAX_BODY_BYTES` a 413, neither read),
  keeps connections alive unless the request says ``Connection: close`` or
  speaks HTTP/1.0, answers ``Expect: 100-continue``, refuses chunked bodies,
  and writes each reply with one ``sendall``.  Another transport is a second
  adapter over :func:`respond`, not a second stack.
"""

from __future__ import annotations

import json
import socket
import socketserver
from collections.abc import Callable
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qs

from repro.api.core import content_length, keeps_alive, read_head

#: What an endpoint returns: an HTTP status and a JSON dict or a text str.
Reply = tuple[int, dict | str]


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


# ---------------------------------------------------------------------- #
# the transport: a minimal HTTP/1.1 server over socketserver
# ---------------------------------------------------------------------- #
#: Largest request body the adapter reads: a longer declared
#: ``Content-Length`` is refused with a 413 before any of the body is read.
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _Refusal(Exception):
    """A request the adapter answers itself with a JSON error, then closes on."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _read_request(reader, sock) -> tuple[str, str, bytes, bool] | None:
    """One request off a connection: ``(method, target, body, keep_alive)``.

    ``None`` when the client closed — before a request, or inside its body.
    A request that cannot be framed raises :class:`_Refusal`; a body over
    :data:`MAX_BODY_BYTES` is refused without being read.
    """
    try:
        head = read_head(reader)
        if head is None:
            return None
        start, headers = head
        length = content_length(headers) or 0
    except ValueError as exc:
        raise _Refusal(400, str(exc)) from None
    if len(start) != 3 or not start[2].startswith("HTTP/1."):
        raise _Refusal(400, f"malformed request line {' '.join(start)!r}")
    method, target, version = start
    if "transfer-encoding" in headers:
        raise _Refusal(400, "Transfer-Encoding is not supported; "
                            "frame the body with Content-Length")
    if length > MAX_BODY_BYTES:
        raise _Refusal(413, f"a {length}-byte body exceeds the "
                            f"{MAX_BODY_BYTES}-byte limit")
    if length and headers.get("expect", "").lower() == "100-continue":
        sock.sendall(_CONTINUE)
    body = reader.read(length) if length else b""
    if len(body) < length:
        return None
    return method, target, body, keeps_alive(version, headers)


def _send(sock, app: RoutedApp, status: int, body: dict | str,
          keep_alive: bool) -> bool:
    """Frame and write one reply value in one write; returns ``keep_alive``."""
    if isinstance(body, dict):
        content_type, data = "application/json", json.dumps(body).encode("utf-8")
    else:
        content_type, data = "text/plain; version=0.0.4", body.encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
        f"Server: {app.server_version}",
        f"Date: {formatdate(usegmt=True)}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(data)}",
    ]
    if not keep_alive:
        lines.append("Connection: close")
    sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data)
    return keep_alive


def _serve_connection(app: RoutedApp, sock: socket.socket) -> None:
    """Answer requests on one accepted connection until either side closes."""
    # a 100-continue and then its reply are two small writes: without
    # NODELAY, Nagle + delayed ACK can stall the second ~40ms
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")
    try:
        while True:
            try:
                request = _read_request(reader, sock)
            except _Refusal as refusal:
                _send(sock, app, refusal.status, {"error": str(refusal)}, False)
                return
            if request is None:
                return
            method, target, body, keep_alive = request
            if method == "GET":
                reply = respond(app, method, target, None)
            elif method == "POST":
                reply = respond(app, method, target, body)
            else:
                reply = 501, {"error": f"method {method!r} is not supported"}
            if not _send(sock, app, *reply, keep_alive):
                return
    except ConnectionError:
        pass  # the client went away mid-exchange: nobody left to answer
    finally:
        reader.close()


class HTTPAdapter(socketserver.ThreadingTCPServer):
    """The transport: one thread per connection, sized for thousands.

    A load generator's client threads open their connections in bursts (a
    thousand at once in the tests), so the listen backlog must be far deeper
    than :mod:`socketserver`'s default of 5 or a burst gets
    connection-refused before a single request is sent.
    """

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 1024

    def __init__(self, address: tuple[str, int], app: RoutedApp) -> None:
        self.app = app
        super().__init__(address, None)

    def finish_request(self, request, client_address) -> None:
        _serve_connection(self.app, request)
