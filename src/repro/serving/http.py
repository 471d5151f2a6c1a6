"""HTTP adapter over :class:`~repro.serving.service.ReputationService`.

:func:`create_http_server` binds a stdlib ``ThreadingHTTPServer`` — a thin
transport over the transport-agnostic session object.  Zero new
dependencies, so tier-1 CI (and the serve-gate job) exercises the real
network path on a bare container.  This is the adapter ``repro serve``
boots.

The v1 API surface (documented in docs/API.md):

=========  ==================  ===========================================
method     path                semantics
=========  ==================  ===========================================
``POST``   ``/v1/feedback``    ingest one event object or ``{"events": [...]}``
``GET``    ``/v1/scores``      published scores at the current watermark
``GET``    ``/v1/peers/{id}``  one peer's score/rank summary
``GET``    ``/v1/evidence``    audit slice of the reports the mechanism holds
``POST``   ``/v1/snapshot``    persist the session (``{"path": ...}``)
``GET``    ``/v1/health``      state machine, counters, SLA latency summary
=========  ==================  ===========================================

Error semantics:

* ``400`` — malformed request (bad JSON, non-object events, bad headers):
  ``{"error": ..., "status": 400}``.
* ``429`` — shed by the admission gate or the per-client token bucket:
  ``{"error": ..., "retry_after": ..., "status": 429}`` plus a
  ``Retry-After`` header.  Clients identify themselves with an optional
  ``X-Client-Id`` header (falling back to the peer address).
* ``503`` — service is read-only (durability lost or operator-flipped);
  same shape as 429.  Reads keep answering from the stale watermark.
* ``500`` — unexpected failure, reported as a structured record
  (:func:`request_failure_record`), never a raw traceback.

``POST /v1/feedback`` honors an ``Idempotency-Key`` header: a batch
re-sent under an acked key returns the original receipt with
``duplicate: true`` instead of double-ingesting (see
:class:`~repro.serving.service.ReputationService.ingest_many`).

Every response is JSON with sorted keys, so two servers serving the same
session state answer byte-identically — the serve-gate's restart check
compares raw response bodies.

Connections are HTTP/1.1 keep-alive.  A request's header lines are read by
:func:`repro.serving.wire.read_fields`, not by the stdlib's email parser:
a header line that is obs-folded, has no colon or has whitespace in its
name gets a ``400`` and the connection closes, and a head over the
stdlib's limits gets a ``431``.  Every declared request body is read
before routing, so whatever a route does with it the next request on the
connection starts where the body ends; a body whose length is unknown or
too large gets a ``400`` and the connection closes.  Each response leaves
in one send with Nagle off, and a connection idle for
:data:`IDLE_TIMEOUT_SECONDS` is closed so it stops holding a thread.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from collections.abc import Callable
from dataclasses import asdict
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import ParseResult, parse_qs, urlparse

from repro.errors import ConfigurationError, OverloadError, ReadOnlyError, ReproError
from repro.serving import wire
from repro.serving.service import ReputationService

#: Cap on request bodies (16 MiB): a runaway client should get a 400, not
#: an out-of-memory server.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a kept-alive connection may sit between requests before the
#: server closes it and frees its thread.  Well above the pauses of a live
#: client (``perfbench`` clients wait up to 10 s at a sampling barrier), so
#: only an abandoned connection is reaped.
IDLE_TIMEOUT_SECONDS = 60.0


def request_failure_record(
    error: BaseException, *, method: str, path: str
) -> dict[str, object]:
    """Structured record of an unexpected (non-:class:`ReproError`) failure.

    This is the serving layer's R8 error emitter: every broad ``except``
    in the HTTP adapter funnels through it, so an internal bug surfaces
    as a parseable 500 body instead of a raw traceback or a silent drop.
    """
    return {
        "error": str(error) or error.__class__.__name__,
        "error_type": error.__class__.__name__,
        "method": method,
        "path": path,
        "status": 500,
    }


def _error_response(
    error: ReproError,
) -> tuple[int, dict[str, object], dict[str, str]]:
    """Map a library error to ``(status, body, extra_headers)``."""
    if isinstance(error, OverloadError):
        status, retry = 429, error.retry_after
    elif isinstance(error, ReadOnlyError):
        status, retry = 503, error.retry_after
    else:
        return 400, {"error": str(error), "status": 400}, {}
    payload: dict[str, object] = {
        "error": str(error),
        "retry_after": retry,
        "status": status,
    }
    return status, payload, {"Retry-After": str(max(0, math.ceil(retry)))}


def _decode_body(raw: bytes) -> object:
    """Parse a request body: empty is ``None``, otherwise strict UTF-8 JSON."""
    if not raw:
        return None
    if len(raw) > MAX_BODY_BYTES:
        raise ConfigurationError(f"request body exceeds {MAX_BODY_BYTES} bytes")
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad syntax and an integer literal past
        # Python's digit limit; RecursionError, nesting too deep to parse.
        raise ConfigurationError(f"request body is not valid JSON: {error}") from error


def _parse_limit(value: str) -> int:
    try:
        return int(value)
    except ValueError as error:
        raise ConfigurationError("limit must be an integer") from error


def _parse_start(value: str) -> int:
    try:
        start = int(value)
    except ValueError as error:
        raise ConfigurationError("start must be an integer") from error
    if start < 0:
        raise ConfigurationError("start must be non-negative")
    return start


def _version_number(version: str) -> tuple[int, int] | None:
    """``HTTP/<major>.<minor>`` as two integers, or ``None`` when malformed.

    The stdlib's reading (RFC 2145 §3.1): one dot, each part at most ten
    ASCII digits, leading zeros ignored.
    """
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


def _json_body(payload: dict[str, object]) -> bytes:
    """A response body: the payload's sorted-keys JSON and a newline."""
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def _scores_payload(service: ReputationService, limit: int | None) -> dict[str, object]:
    """The ``/v1/scores`` response body, built from one consistent read."""
    view = service.scores()
    if limit is None:
        scores: dict[str, float] = dict(view)
        ranking = view.ranking()
    else:
        top = view.top(limit)
        scores = dict(top)
        ranking = [peer for peer, _ in top]
    return {
        "watermark": view.watermark,
        "pending": view.pending,
        "default_score": view.default_score,
        "scores": scores,
        "ranking": ranking,
    }


def _scores_response_body(service: ReputationService, limit: int | None) -> bytes:
    """The bytes ``GET /v1/scores`` sends: ``_json_body(_scores_payload(...))``.

    A full read takes the document :meth:`ReputationService.scores_json`
    splices around the members it encodes once per publish; a ``limit``
    read encodes its own, much smaller, payload.
    """
    if limit is None:
        return service.scores_json() + b"\n"
    return _json_body(_scores_payload(service, limit))


def _evidence_payload(
    service: ReputationService, start: int, limit: int | None
) -> dict[str, object]:
    """The ``/v1/evidence`` response body."""
    events = service.evidence(start, limit)
    return {
        "start": start,
        "count": len(events),
        "total": service.evidence_count,
        "events": [asdict(event) for event in events],
    }


def _ingest_payload(
    service: ReputationService, body: object, *, idempotency_key: str | None = None
) -> dict[str, object]:
    """The ``/v1/feedback`` response body."""
    if isinstance(body, dict) and "events" in body:
        events = body["events"]
        if not isinstance(events, list):
            raise ConfigurationError("'events' must be a list of feedback objects")
    elif isinstance(body, dict):
        events = [body]
    elif isinstance(body, list):
        events = body
    else:
        raise ConfigurationError("feedback body must be an object or a list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ConfigurationError(f"feedback event #{index} must be a JSON object")
    receipt = service.ingest_many(events, idempotency_key=idempotency_key)
    return dict(asdict(receipt))


def _guarded_ingest(
    service: ReputationService,
    raw: bytes,
    *,
    client_id: str,
    idempotency_key: str | None,
) -> dict[str, object]:
    """Rate-limit, admit, parse and ingest one ``/v1/feedback`` request.

    The whole write path: token bucket first (cheapest rejection), then a
    bounded admission slot around parse + ingest so saturation sheds with
    429 instead of queueing without bound.
    """
    allowed, wait = service.rate_limiter.allow(client_id)
    if not allowed:
        raise OverloadError(
            f"rate limit exceeded for client {client_id!r}", retry_after=wait
        )
    with service.admission.admit(retry_after=service.config.retry_after):
        body = _decode_body(raw)
        return _ingest_payload(service, body, idempotency_key=idempotency_key)


def _snapshot_payload(
    service: ReputationService, body: object, default_path: str | None
) -> dict[str, object]:
    """The ``/v1/snapshot`` response body."""
    path = default_path
    if isinstance(body, dict) and body.get("path") is not None:
        raw_path = body["path"]
        if not isinstance(raw_path, str) or not raw_path:
            raise ConfigurationError("snapshot 'path' must be a non-empty string")
        path = raw_path
    if path is None:
        raise ConfigurationError(
            "no snapshot path: POST {\"path\": ...} or start the server with --snapshot"
        )
    return service.snapshot(path)


class ReputationRequestHandler(BaseHTTPRequestHandler):
    """Routes v1 requests onto the server's service session."""

    #: Advertised in the ``Server`` response header.
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a kept-alive peer delays its ACKs, and Nagle would hold
    #: any second segment of a response back until that ACK arrives.
    disable_nagle_algorithm = True

    server: ReputationHTTPServer
    #: The request's header fields, read by :func:`wire.read_fields`.
    headers: wire.Headers  # type: ignore[assignment]
    #: The stdlib's response head, which ``send_header`` appends to.
    _headers_buffer: list[bytes]

    def log_message(self, format: str, *args: object) -> None:
        """Per-request stderr logging is off; latency lives in /v1/health."""

    def parse_request(self) -> bool:
        """Read the request line the stdlib's way and the head through :mod:`wire`.

        The request-line statuses are the stdlib's: 400 for bad syntax or
        version, 505 from HTTP/2.0 up, and a two-word line is an HTTP/0.9
        ``GET``.  So are the ``Connection`` and ``Expect: 100-continue``
        rules, for this handler's HTTP/1.1.  A head :mod:`wire` cannot read
        gets its 400 or 431, which closes the connection.
        """
        self.command = None  # type: ignore[assignment]  # until the line parses
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, f"Invalid HTTP version ({version[5:]})"
                )
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command = command
        # The stdlib's guard against an open redirect through a '//' path.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = wire.read_fields(self.rfile)
        except wire.HeadError as error:
            self.send_error(error.status, error.reason, error.detail)
            return False
        connection = self.headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def setup(self) -> None:
        super().setup()
        self.connection.settimeout(IDLE_TIMEOUT_SECONDS)
        self.server.track(self.connection)

    def finish(self) -> None:
        self.server.untrack(self.connection)
        super().finish()

    # -- plumbing ----------------------------------------------------------

    def _send_json(
        self,
        status: int,
        payload: dict[str, object],
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_body(status, _json_body(payload), headers)

    def _send_body(
        self, status: int, body: bytes, headers: dict[str, str] | None = None
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name in sorted(headers or {}):
            self.send_header(name, (headers or {})[name])
        if self.request_version == "HTTP/0.9":  # no head was buffered
            self.wfile.write(body)
            return
        # end_headers() would send the head on its own: queue the blank line
        # and the body behind it so the whole response is one send.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message, "status": status})

    def _send_repro_error(self, error: ReproError) -> None:
        status, payload, headers = _error_response(error)
        self._send_json(status, payload, headers)

    def _read_raw_body(self) -> bytes:
        if "Transfer-Encoding" in self.headers:
            raise ConfigurationError(
                "Transfer-Encoding request bodies are not supported; send Content-Length"
            )
        raw_length = self.headers.get("Content-Length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError as error:
            raise ConfigurationError(
                f"invalid Content-Length header: {raw_length!r}"
            ) from error
        if length < 0:
            raise ConfigurationError(f"invalid Content-Length header: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise ConfigurationError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        if length == 0:
            return b""
        return self.rfile.read(length)

    def _client_id(self) -> str:
        return self.headers.get("X-Client-Id") or str(self.client_address[0])

    # -- verbs -------------------------------------------------------------

    def _respond(self, method: str, route: Callable[[ParseResult, bytes], None]) -> None:
        """Read the request body, then route; every failure becomes JSON."""
        url = urlparse(self.path)
        try:
            raw = self._read_raw_body()
        except ConfigurationError as error:
            # Where the body ends, and so where the next request on this
            # connection starts, is unknown: answer, then hang up.
            status, payload, headers = _error_response(error)
            self._send_json(status, payload, {**headers, "Connection": "close"})
            return
        try:
            route(url, raw)
        except ReproError as error:
            self._send_repro_error(error)
        except Exception as error:
            self._send_json(500, request_failure_record(error, method=method, path=url.path))

    def do_GET(self) -> None:
        self._respond("GET", self._route_get)

    def do_POST(self) -> None:
        self._respond("POST", self._route_post)

    def _route_get(self, url: ParseResult, raw: bytes) -> None:
        service = self.server.service
        if url.path == "/v1/health":
            self._send_json(200, service.health())
        elif url.path == "/v1/scores":
            query = parse_qs(url.query)
            limit: int | None = None
            if "limit" in query:
                limit = _parse_limit(query["limit"][0])
            self._send_body(200, _scores_response_body(service, limit))
        elif url.path == "/v1/evidence":
            query = parse_qs(url.query)
            start = _parse_start(query["start"][0]) if "start" in query else 0
            slice_limit = _parse_limit(query["limit"][0]) if "limit" in query else None
            self._send_json(200, _evidence_payload(service, start, slice_limit))
        elif url.path.startswith("/v1/peers/"):
            peer_id = url.path[len("/v1/peers/") :]
            if not peer_id or "/" in peer_id:
                self._send_error_json(404, f"no such route: {url.path}")
                return
            summary = service.peer(peer_id)
            self._send_json(200 if summary.known else 404, dict(asdict(summary)))
        else:
            self._send_error_json(404, f"no such route: {url.path}")

    def _route_post(self, url: ParseResult, raw: bytes) -> None:
        service = self.server.service
        if url.path == "/v1/feedback":
            payload = _guarded_ingest(
                service,
                raw,
                client_id=self._client_id(),
                idempotency_key=self.headers.get("Idempotency-Key"),
            )
            self._send_json(200, payload)
        elif url.path == "/v1/snapshot":
            body = _decode_body(raw)
            self._send_json(200, _snapshot_payload(service, body, self.server.snapshot_path))
        else:
            self._send_error_json(404, f"no such route: {url.path}")


class ReputationHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one service session."""

    #: Threads die with the process; the serve-gate SIGKILLs servers on
    #: purpose and must not hang on connection threads.
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: ReputationService,
        *,
        snapshot_path: str | None = None,
    ) -> None:
        super().__init__(address, ReputationRequestHandler)
        self.service = service
        self.snapshot_path = snapshot_path
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def track(self, connection: socket.socket) -> None:
        """Register an open client connection (see :meth:`server_close`)."""
        with self._connections_lock:
            self._connections.add(connection)

    def untrack(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(connection)

    def server_close(self) -> None:
        """Stop listening, and end every kept-alive connection.

        Shutting down only the read side lets a request in flight still
        write its response; the handler then reads EOF where the next
        request would start and closes the connection.
        """
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer already closed it


def create_http_server(
    service: ReputationService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    snapshot_path: str | None = None,
) -> ReputationHTTPServer:
    """Bind the stdlib adapter; ``port=0`` picks a free port (see
    ``server.server_address`` for the bound one)."""
    return ReputationHTTPServer((host, port), service, snapshot_path=snapshot_path)
