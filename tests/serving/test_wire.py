"""The HTTP/1.1 head reader both ends of the v1 API frame with.

``http.client`` is the oracle throughout: it reads the drawn heads for the
property, and it reads the server's responses in the raw-socket tests, so
a framing bug in :mod:`repro.serving.wire` cannot hide behind itself.
"""

import http.client
import io
import json
import re
import socket
import string
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, RequestFailedError
from repro.serving import wire
from repro.serving.client import CircuitBreaker, ClientRetryPolicy, ResilientClient
from repro.serving.http import create_http_server
from repro.serving.service import ReputationService

TOKEN_CHARS = "!#$%&'*+-.^_`|~" + string.digits + string.ascii_letters
#: Every latin-1 character but the two that end a line.
VALUE_CHARS = "".join(chr(code) for code in range(256) if chr(code) not in "\r\n")


@st.composite
def heads(draw):
    """A well-formed header block, the names it uses and the bytes after it."""
    names = draw(
        st.lists(
            st.text(TOKEN_CHARS, min_size=1, max_size=8),
            min_size=1,
            max_size=6,
            unique_by=str.lower,
        )
    )
    lines = []
    for _ in range(draw(st.integers(0, 20))):
        name = draw(st.sampled_from(names))
        cased = "".join(
            char.upper() if draw(st.booleans()) else char.lower() for char in name
        )
        padding = draw(st.text(" \t", max_size=3))
        value = draw(st.text(VALUE_CHARS, max_size=12))
        ending = draw(st.sampled_from(["\r\n", "\n"]))
        lines.append(f"{cased}:{padding}{value}{ending}")
    lines.append(draw(st.sampled_from(["\r\n", "\n"])))
    return "".join(lines).encode("latin-1"), names


@given(head=heads(), after=st.binary(max_size=8))
@settings(max_examples=300, deadline=None)
def test_fields_read_as_the_stdlib_reads_them(head, after):
    block, names = head
    ours = io.BytesIO(block + after)
    theirs = io.BytesIO(block + after)
    fields = wire.read_fields(ours)
    oracle = http.client.parse_headers(theirs)
    assert ours.tell() == theirs.tell() == len(block)
    for name in names:
        for asked in (name, name.lower(), name.upper()):
            assert fields.get(asked) == oracle.get(asked)
            assert (asked in fields) == (asked in oracle)
    assert fields.get("absent-name", "dflt") == oracle.get("absent-name", "dflt")


class TestReader:
    def test_value_keeps_trailing_whitespace_and_first_name_wins(self):
        fields = wire.read_fields(io.BytesIO(b"X-A: \t one \t\r\nx-a: two\r\nX-B:\r\n\r\n"))
        assert fields.get("x-A") == "one \t"
        assert fields.get("X-B") == ""
        assert "x-b" in fields and "X-C" not in fields and 3 not in fields

    def test_end_of_stream_ends_the_head(self):
        assert wire.read_fields(io.BytesIO(b"X-A: 1\r\nX-B: 2")).get("x-b") == "2"

    @pytest.mark.parametrize(
        "line",
        [b" folded\r\n", b"\tX-B: folded\r\n", b"NoColon\r\n", b"X-B : 1\r\n", b": 1\r\n"],
    )
    def test_malformed_line_is_a_400(self, line):
        with pytest.raises(wire.HeadError) as raised:
            wire.read_fields(io.BytesIO(b"X-A: 1\r\n" + line + b"\r\n"))
        assert raised.value.status == 400

    @pytest.mark.parametrize("fields, status", [(99, None), (100, 431)])
    def test_line_count_limit_is_the_stdlibs(self, fields, status):
        """100 lines, the blank one included, pass; the 101st is refused."""
        block = b"".join(b"X-%d: v\r\n" % index for index in range(fields)) + b"\r\n"
        try:
            http.client.parse_headers(io.BytesIO(block))
        except http.client.HTTPException:
            stdlib = 431
        else:
            stdlib = None
        try:
            wire.read_fields(io.BytesIO(block))
        except wire.HeadError as error:
            ours = error.status
        else:
            ours = None
        assert ours == stdlib == status

    @pytest.mark.parametrize("size, status", [(65536, None), (65537, 431)])
    def test_line_length_limit_is_the_stdlibs(self, size, status):
        line = b"X-Long: " + b"a" * (size - len(b"X-Long: \r\n")) + b"\r\n"
        assert len(line) == size
        try:
            http.client.parse_headers(io.BytesIO(line + b"\r\n"))
        except http.client.LineTooLong:
            stdlib = 431
        else:
            stdlib = None
        try:
            wire.read_fields(io.BytesIO(line + b"\r\n"))
        except wire.HeadError as error:
            ours = error.status
        else:
            ours = None
        assert ours == stdlib == status


# -- the server, over raw sockets ----------------------------------------------


@pytest.fixture()
def service():
    return ReputationService(refresh_every=2)


@pytest.fixture()
def server(service):
    server = create_http_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def raw(server):
    sock = socket.create_connection(server.server_address[:2], timeout=10)
    try:
        yield sock
    finally:
        sock.close()


def response_to(sock, request):
    """Send ``request`` and read one response with ``http.client``."""
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    try:
        response.begin()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        response.close()


def closed_by_peer(sock):
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


HEALTH = b"GET /v1/health HTTP/1.1\r\n"
BATCH = json.dumps({"events": [{"subject": "alice", "rating": 1.0}]}).encode()


class TestServerHead:
    def test_bare_newline_endings_are_accepted(self, raw):
        status, _, body = response_to(raw, b"GET /v1/health HTTP/1.1\nX-A: 1\n\n")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize(
        "line", [b"X-A: 1\r\n folded\r\n", b"NoColon\r\n", b"X-A : 1\r\n"]
    )
    def test_malformed_line_gets_400_and_a_closed_connection(self, raw, service, line):
        status, headers, body = response_to(raw, HEALTH + line + b"\r\n")
        assert status == 400
        assert headers["Connection"] == "close"
        assert b"Bad header line" in body
        assert closed_by_peer(raw)

    @pytest.mark.parametrize("fields, status", [(99, 200), (100, 431)])
    def test_header_count_limit(self, raw, fields, status):
        head = b"".join(b"X-%d: v\r\n" % index for index in range(fields))
        assert response_to(raw, HEALTH + head + b"\r\n")[0] == status

    @pytest.mark.parametrize("size, status", [(65536, 200), (65537, 431)])
    def test_line_length_limit(self, raw, size, status):
        line = b"X-Long: " + b"a" * (size - len(b"X-Long: \r\n")) + b"\r\n"
        got, headers, _ = response_to(raw, HEALTH + line + b"\r\n")
        assert got == status
        if status == 431:
            assert headers["Connection"] == "close"

    def test_http_1_0_closes_after_the_response(self, raw):
        status, _, _ = response_to(raw, b"GET /v1/health HTTP/1.0\r\n\r\n")
        assert status == 200
        assert closed_by_peer(raw)

    def test_http_1_0_keep_alive_stays_open(self, raw):
        request = b"GET /v1/health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        assert response_to(raw, request)[0] == 200
        assert response_to(raw, request)[0] == 200

    def test_connection_close_closes(self, raw):
        assert response_to(raw, HEALTH + b"connection: Close\r\n\r\n")[0] == 200
        assert closed_by_peer(raw)

    @pytest.mark.parametrize(
        "line, status",
        [
            (b"GET /v1/health HTTP/2.0", 505),
            (b"GET /v1/health HTTP/1.x", 400),
            (b"GET /v1/health HTTP/1.1 extra", 400),
            (b"POST /v1/feedback", 400),
            (b"GET", 400),
        ],
    )
    def test_bad_request_line_gets_the_stdlibs_status(self, raw, line, status):
        raw.sendall(line + b"\r\n\r\n")
        answer = b"".join(iter(lambda: raw.recv(65536), b""))
        # Until a version is read the request counts as HTTP/0.9, whose
        # answer has no head: the stdlib's error page is the whole reply.
        assert not answer.startswith(b"HTTP/")
        assert b"Error code: %d" % status in answer

    def test_expect_100_continue_gets_the_interim_response(self, raw, service):
        raw.sendall(
            b"POST /v1/feedback HTTP/1.1\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(BATCH)
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += raw.recv(1)
        assert interim.startswith(b"HTTP/1.1 100 ")
        status, _, body = response_to(raw, BATCH)
        assert status == 200
        assert json.loads(body)["accepted"] == 1

    def test_lower_case_idempotency_key_deduplicates(self, raw, service):
        request = (
            b"POST /v1/feedback HTTP/1.1\r\nidempotency-key: k-1\r\n"
            b"content-length: %d\r\n\r\n" % len(BATCH) + BATCH
        )
        first = json.loads(response_to(raw, request)[2])
        second = json.loads(response_to(raw, request)[2])
        assert (first["duplicate"], second["duplicate"]) == (False, True)
        assert second["seq"] == first["seq"]
        assert service.health()["ingested"] == 1


# -- the client, against a stub server ------------------------------------------

GOOD_BODY = b'{"status": "ok"}\n'
GOOD = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(GOOD_BODY) + GOOD_BODY


class StubServer:
    """Answers the n-th connection's one request with ``responses[n]``.

    It hangs up after each answer; with ``keep_open`` it does not, so a
    client that reuses a connection waits for an answer that never comes.
    """

    def __init__(self, responses, *, keep_open=False):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.responses = list(responses)
        self.keep_open = keep_open
        self.requests = []
        self.connections = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for response in self.responses:
            connection, _ = self.listener.accept()
            self.connections.append(connection)
            with connection.makefile("rb") as rfile:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    head += rfile.readline()
                length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
                self.requests.append(head + rfile.read(int(length[1]) if length else 0))
            connection.sendall(response)
            if not self.keep_open:
                connection.close()

    def close(self):
        self.thread.join(timeout=10)
        for connection in self.connections:
            connection.close()
        self.listener.close()


def stub_client(stub, **kwargs):
    kwargs.setdefault("sleeper", lambda wait: None)
    kwargs.setdefault("policy", ClientRetryPolicy(timeout=5.0))
    return ResilientClient("127.0.0.1", stub.port, **kwargs)


UNFRAMABLE = {
    "no content-length": b"HTTP/1.1 200 OK\r\n\r\n" + GOOD_BODY,
    "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n11\r\n"
    + GOOD_BODY
    + b"\r\n0\r\n\r\n",
    "chunked beside a length": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
    b"Content-Length: %d\r\n\r\n" % len(GOOD_BODY) + GOOD_BODY,
    "garbage status line": b"garbage\r\nContent-Length: %d\r\n\r\n" % len(GOOD_BODY)
    + GOOD_BODY,
    "hang-up mid-body": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + GOOD_BODY,
    "hang-up before the head": b"",
}


class TestClientFraming:
    @pytest.mark.parametrize("case", sorted(UNFRAMABLE))
    def test_unframable_response_is_retried_as_a_transport_failure(self, case):
        stub = StubServer([UNFRAMABLE[case], GOOD])
        breaker = CircuitBreaker(failure_threshold=1, reset_after=0.05)
        states = []

        def sleeper(wait):
            states.append(breaker.state)
            time.sleep(0.06)

        try:
            with stub_client(stub, breaker=breaker, sleeper=sleeper) as client:
                assert client.request("GET", "/v1/health") == (200, {"status": "ok"}, GOOD_BODY)
                assert client.retries == 1
        finally:
            stub.close()
        # The failed attempt opened the breaker; the retry was its probe.
        assert states == ["open"]
        assert breaker.state == "closed"
        assert len(stub.requests) == 2

    @pytest.mark.parametrize("case", sorted(UNFRAMABLE))
    def test_no_partial_body_when_every_attempt_fails(self, case):
        stub = StubServer([UNFRAMABLE[case]] * 2)
        try:
            with stub_client(stub, policy=ClientRetryPolicy(max_attempts=2)) as client:
                with pytest.raises(RequestFailedError) as raised:
                    client.request("GET", "/v1/health")
        finally:
            stub.close()
        assert raised.value.status is None
        assert raised.value.attempts == 2

    def test_connection_close_response_closes_the_socket(self):
        closing = GOOD.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1)
        stub = StubServer([closing, GOOD], keep_open=True)
        try:
            with stub_client(stub) as client:
                assert client.request("GET", "/v1/health")[2] == GOOD_BODY
                # The stub keeps the first connection open; only a client
                # that closed it reaches the second.
                assert client.request("GET", "/v1/health")[2] == GOOD_BODY
                assert client.retries == 0
        finally:
            stub.close()

    def test_request_is_one_head_with_host_and_length(self):
        stub = StubServer([GOOD, GOOD])
        try:
            with stub_client(stub, client_id="c") as client:
                client.request("GET", "/v1/health", headers={"X-Request-Id": "r"})
                client.request("POST", "/v1/snapshot")
        finally:
            stub.close()
        host = f"Host: 127.0.0.1:{stub.port}".encode()
        assert stub.requests == [
            b"GET /v1/health HTTP/1.1\r\n" + host + b"\r\nX-Request-Id: r\r\n\r\n",
            b"POST /v1/snapshot HTTP/1.1\r\n" + host + b"\r\nContent-Length: 0\r\n\r\n",
        ]

    @pytest.mark.parametrize(
        "path, headers",
        [
            ("/v1/peers/a b", {}),
            ("/v1/peers/a\r\nX-Injected: 1", {}),
            ("/v1/peers/zoë", {}),
            ("/v1/health", {"X-Id": "a\r\nX-Injected: 1"}),
            ("/v1/health", {"X Id": "a"}),
        ],
    )
    def test_unframable_request_is_refused_before_sending(self, path, headers):
        client = ResilientClient("127.0.0.1", 1, sleeper=lambda wait: None)
        with pytest.raises(ConfigurationError):
            client.request("GET", path, headers=headers)
        # Nothing was attempted: no connection, no breaker failure.
        assert client.breaker.state == "closed"
        client.close()


def test_client_and_server_agree_on_every_route(server, service):
    """The two readers face each other: bodies equal the stdlib-read bytes."""
    host, port = server.server_address[:2]
    with ResilientClient(host, port, sleeper=lambda wait: None) as client:
        client.ingest([{"subject": "alice", "rating": 1.0}, {"subject": "bob", "rating": 0.5}])
        for path in ("/v1/scores", "/v1/peers/alice", "/v1/peers/zed", "/v1/evidence", "/v1/x"):
            status, _, body = client.request("GET", path)
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request("GET", path)
                response = connection.getresponse()
                assert (status, body) == (response.status, response.read())
            finally:
                connection.close()
