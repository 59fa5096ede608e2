"""HTTP/1.1 framing over real sockets, at both ends of the one wire kernel.

* the server end — :class:`~repro.server.adapter.HTTPAdapter` in front of a
  small echo app — is driven with raw bytes and read back with a reader of
  this file's own: keep-alive, pipelining, ``Connection: close`` and
  HTTP/1.0, ``Expect: 100-continue``, and every request it must refuse
  (chunked, over-long, too many headers, an unsupported method, a negative
  or huge ``Content-Length``) — each refusal a JSON error and a close;
* the client end — :class:`~repro.api.remote.RemoteGraphService` — talks to
  a scripted loopback peer whose n-th connection runs the n-th script: a
  ``Connection: close`` reply, a truncated body, a reply without
  ``Content-Length`` (an error, never a read to close), a stale keep-alive
  connection (reconnect once) and a timeout (never re-sent).
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.api.remote import RemoteGraphService, WireError
from repro.server.adapter import MAX_BODY_BYTES, HTTPAdapter, RoutedApp

#: Seconds a test waits for a reply before calling the server hung.
REPLY_TIMEOUT = 3.0


class EchoApp(RoutedApp):
    routes = {
        ("POST", "/echo"): lambda self, params, payload: (200, {"echo": payload}),
        ("GET", "/hello"): lambda self, params, payload: (
            200, {"hello": params.get("name", ["world"])[0]}),
    }


@pytest.fixture(scope="module")
def server():
    adapter = HTTPAdapter(("127.0.0.1", 0), EchoApp())
    thread = threading.Thread(target=adapter.serve_forever, daemon=True)
    thread.start()
    try:
        yield adapter
    finally:
        adapter.shutdown()
        thread.join()
        adapter.server_close()


@pytest.fixture
def connect(server):
    """Open raw connections to the server: ``(socket, reader)`` pairs."""
    opened = []

    def open_connection():
        sock = socket.create_connection(server.server_address, REPLY_TIMEOUT)
        reader = sock.makefile("rb")
        opened.append((sock, reader))
        return sock, reader

    yield open_connection
    for sock, reader in opened:
        reader.close()
        sock.close()


def post(path: str, payload, *headers: str, version: str = "HTTP/1.1") -> bytes:
    body = json.dumps(payload).encode()
    head = [f"POST {path} {version}", "Host: test",
            f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def read_reply(reader) -> tuple[int, dict, bytes]:
    """One reply off ``reader``: status, headers by lower-cased name, body."""
    status_line = reader.readline()
    assert status_line, "the server closed without replying"
    version, status, _ = status_line.decode("latin-1").split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status), headers, reader.read(int(headers["content-length"]))


def assert_closed(reader) -> None:
    try:
        rest = reader.read()
    except ConnectionResetError:  # closed with request bytes left unread
        rest = b""
    assert rest == b"", "the server kept the connection open"


def assert_refused(reader, status: int, words: str) -> None:
    got, headers, body = read_reply(reader)
    assert got == status, body
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert words in json.loads(body)["error"]
    assert_closed(reader)


# ---------------------------------------------------------------------- #
# the server end
# ---------------------------------------------------------------------- #
class TestServerFraming:
    def test_one_connection_carries_many_requests(self, connect):
        sock, reader = connect()
        for n in range(4):
            sock.sendall(post("/echo", {"n": n}))
            status, headers, body = read_reply(reader)
            assert status == 200 and json.loads(body) == {"echo": {"n": n}}
            assert "connection" not in headers
        sock.sendall(b"GET /hello?name=again HTTP/1.1\r\nHost: test\r\n\r\n")
        assert json.loads(read_reply(reader)[2]) == {"hello": "again"}

    def test_pipelined_requests_are_answered_in_order(self, connect):
        sock, reader = connect()
        sock.sendall(post("/echo", "first") + post("/echo", "second")
                     + b"GET /hello HTTP/1.1\r\n\r\n")
        bodies = [json.loads(read_reply(reader)[2]) for _ in range(3)]
        assert bodies == [{"echo": "first"}, {"echo": "second"}, {"hello": "world"}]

    @pytest.mark.parametrize("headers,version", [
        (("Connection: close",), "HTTP/1.1"),
        (("Connection: keep-alive, Close",), "HTTP/1.1"),
        ((), "HTTP/1.0"),
    ], ids=["connection-close", "close-token", "http-1.0"])
    def test_close_after_the_reply(self, connect, headers, version):
        sock, reader = connect()
        sock.sendall(post("/echo", 1, *headers, version=version))
        status, reply_headers, body = read_reply(reader)
        assert status == 200 and json.loads(body) == {"echo": 1}
        assert reply_headers["connection"] == "close"
        assert_closed(reader)

    def test_expect_100_continue_gets_an_interim_reply(self, connect):
        sock, reader = connect()
        request = post("/echo", "late", "Expect: 100-continue")
        head, body = request.split(b"\r\n\r\n", 1)
        sock.sendall(head + b"\r\n\r\n")
        assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert reader.readline() == b"\r\n"
        sock.sendall(body)
        status, _, reply = read_reply(reader)
        assert status == 200 and json.loads(reply) == {"echo": "late"}

    def test_chunked_bodies_are_refused(self, connect):
        sock, reader = connect()
        sock.sendall(b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b"2\r\n{}\r\n0\r\n\r\n")
        assert_refused(reader, 400, "Transfer-Encoding")

    def test_an_over_long_request_line_is_refused(self, connect):
        sock, reader = connect()
        sock.sendall(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
        assert_refused(reader, 400, "start line longer than")

    def test_too_many_headers_are_refused(self, connect):
        sock, reader = connect()
        headers = b"".join(b"X-Filler-%d: 1\r\n" % n for n in range(101))
        sock.sendall(b"GET /hello HTTP/1.1\r\n" + headers + b"\r\n")
        assert_refused(reader, 400, "header lines")

    def test_a_malformed_request_line_is_refused(self, connect):
        sock, reader = connect()
        sock.sendall(b"GET /hello SPDY/3\r\n\r\n")
        assert_refused(reader, 400, "malformed request line")

    def test_an_unsupported_method_is_a_json_501(self, connect):
        sock, reader = connect()
        sock.sendall(b"PUT /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
        status, headers, body = read_reply(reader)
        assert status == 501 and headers["content-type"] == "application/json"
        assert "'PUT' is not supported" in json.loads(body)["error"]
        # the body was read by its length: the connection is still in step
        sock.sendall(post("/echo", "after"))
        assert json.loads(read_reply(reader)[2]) == {"echo": "after"}


class TestContentLength:
    """A negative length must not pin a server thread reading to EOF, nor a
    huge one allocate its size: both are refused without reading a byte."""

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", "+3"])
    def test_a_negative_or_malformed_length_is_a_400(self, connect, value):
        sock, reader = connect()
        sock.sendall(f"POST /echo HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}"
                     .encode())
        assert_refused(reader, 400, "Content-Length")

    def test_conflicting_lengths_are_a_400(self, connect):
        sock, reader = connect()
        sock.sendall(b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\n"
                     b"Content-Length: 5\r\n\r\n{}")
        assert_refused(reader, 400, "Content-Length")

    def test_a_body_over_the_limit_is_a_413_and_never_read(self, connect):
        sock, reader = connect()
        sock.sendall(f"POST /echo HTTP/1.1\r\nContent-Length: {10 ** 12}\r\n\r\n{{}}"
                     .encode())
        assert_refused(reader, 413, f"{MAX_BODY_BYTES}-byte limit")
        # the server is still serving
        sock, reader = connect()
        sock.sendall(post("/echo", "still here"))
        assert json.loads(read_reply(reader)[2]) == {"echo": "still here"}


# ---------------------------------------------------------------------- #
# the client end
# ---------------------------------------------------------------------- #
class ScriptedPeer:
    """A loopback peer whose n-th accepted connection runs the n-th script.

    The listener closes once the last script's connection is accepted, so a
    client that connects once too often is refused rather than queued.
    """

    def __init__(self, *scripts) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests: list[bytes] = []
        self.finished = [threading.Event() for _ in scripts]
        self.release = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(scripts,), daemon=True)
        self._thread.start()

    def _run(self, scripts) -> None:
        for position, script in enumerate(scripts):
            conn, _ = self.listener.accept()
            if position == len(scripts) - 1:
                self.listener.close()
            with conn, conn.makefile("rb") as reader:
                script(self, conn, reader)
            self.finished[position].set()

    def read_request(self, reader) -> None:
        """Read one request (head + Content-Length body) and record its line."""
        line = reader.readline()
        length = 0
        while (header := reader.readline()) not in (b"\r\n", b""):
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        reader.read(length)
        self.requests.append(line.strip())

    def close(self) -> None:
        self.release.set()
        self.listener.close()
        self._thread.join(timeout=REPLY_TIMEOUT)


def reply(body: bytes, *headers: str) -> bytes:
    head = ["HTTP/1.1 200 OK", f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


@pytest.fixture
def peer():
    made = []

    def make(*scripts) -> ScriptedPeer:
        made.append(ScriptedPeer(*scripts))
        return made[-1]

    yield make
    for scripted in made:
        scripted.close()


class TestClientFraming:
    def test_a_connection_close_reply_drops_the_connection(self, peer):
        def answer_and_close(peer, conn, reader):
            peer.read_request(reader)
            conn.sendall(reply(b'{"n": %d}' % len(peer.requests), "Connection: close"))

        scripted = peer(answer_and_close, answer_and_close)
        client = RemoteGraphService("127.0.0.1", scripted.port, timeout=REPLY_TIMEOUT)
        assert client.request("GET", "/health") == (200, {"n": 1})
        assert not client._connections  # not parked for reuse
        assert client.request("GET", "/health") == (200, {"n": 2})
        assert len(scripted.requests) == 2

    def test_a_truncated_body_raises_a_typed_error(self, peer):
        def truncate(peer, conn, reader):
            peer.read_request(reader)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"cut")

        scripted = peer(truncate, truncate)
        client = RemoteGraphService("127.0.0.1", scripted.port, timeout=REPLY_TIMEOUT)
        with pytest.raises(WireError, match="truncated: 5 of 100 bytes"):
            client.request("GET", "/health")
        assert issubclass(WireError, ConnectionError)  # one OSError family
        assert not client._connections

    def test_a_reply_without_content_length_is_a_framing_error(self, peer):
        def unframed(peer, conn, reader):
            peer.read_request(reader)
            conn.sendall(b'HTTP/1.1 200 OK\r\nContent-Type: application/json'
                         b'\r\n\r\n{"read": "to close"}')

        scripted = peer(unframed, unframed)
        client = RemoteGraphService("127.0.0.1", scripted.port, timeout=REPLY_TIMEOUT)
        with pytest.raises(WireError, match="without Content-Length"):
            client.request("GET", "/health")
        assert not client._connections

    def test_a_stale_keep_alive_connection_reconnects_once(self, peer):
        def answer_then_close(peer, conn, reader):
            peer.read_request(reader)
            conn.sendall(reply(b'{"n": 1}'))  # keep-alive, then the peer goes

        def answer(peer, conn, reader):
            peer.read_request(reader)
            conn.sendall(reply(b'{"n": 2}'))
            peer.release.wait(REPLY_TIMEOUT)

        scripted = peer(answer_then_close, answer)
        client = RemoteGraphService("127.0.0.1", scripted.port, timeout=REPLY_TIMEOUT)
        assert client.request("POST", "/query", {"q": 1}) == (200, {"n": 1})
        scripted.finished[0].wait(REPLY_TIMEOUT)  # the first connection is gone
        assert client.request("POST", "/query", {"q": 2}) == (200, {"n": 2})
        assert scripted.requests == [b"POST /query HTTP/1.1"] * 2  # once each
        client.close_all()

    def test_a_timeout_propagates_without_a_resend(self, peer):
        def never_answer(peer, conn, reader):
            peer.read_request(reader)
            peer.release.wait(REPLY_TIMEOUT)

        scripted = peer(never_answer)
        client = RemoteGraphService("127.0.0.1", scripted.port, timeout=0.3)
        with pytest.raises(TimeoutError):
            client.request("POST", "/query", {"q": 1})
        # a re-send would have met the closed listener (ConnectionRefusedError)
        assert scripted.requests == [b"POST /query HTTP/1.1"]
        assert not client._connections
