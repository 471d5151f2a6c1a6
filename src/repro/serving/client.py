"""A resilient HTTP client for the reputation service.

:class:`ResilientClient` wraps the v1 API with the client half of the PR-10
durability contract:

* **Timeouts** on every request (:class:`ClientRetryPolicy.timeout`).
* **Retries with exponential backoff and deterministic seeded jitter** —
  transport errors and 429/503 responses are retried up to
  ``max_attempts`` times, doubling the backoff each attempt (capped), with
  a multiplicative jitter drawn from a :class:`random.Random` seeded from
  the policy seed and the client id, so two runs of the same workload back
  off identically (the repro-lint R1 contract: no unseeded randomness).
  A ``retry_after`` hint in a 429/503 body stretches the wait.
* **A circuit breaker** (:class:`CircuitBreaker`): consecutive transport
  failures open the circuit and requests fail fast with
  :class:`~repro.errors.CircuitOpenError` until a reset interval passes,
  after which one half-open probe decides whether to close it again.
* **Idempotency keys**: every ingest batch is assigned a key
  (``{client_id}-{counter}``) sent as the ``Idempotency-Key`` header on
  every attempt, so a retry of a batch the server acked (but whose
  response got lost) returns the original receipt with
  ``duplicate: true`` instead of double-ingesting.
* **One kept-alive connection**: every request reuses one HTTP/1.1
  connection, a socket with a buffered reader.  A request leaves in one
  send; the response's head is read by :mod:`repro.serving.wire` (the
  reader the server uses) and its body by ``Content-Length``.  A
  response that cannot be delimited that way (no status line, no
  ``Content-Length``, any ``Transfer-Encoding``, an end of stream inside
  the body) fails the attempt like a transport error, so no truncated
  body is ever returned.  A transport error drops the connection and the
  next attempt reconnects; a ``Connection: close`` response closes it
  after its body; a connection the server closed while it sat idle (its
  idle timeout, a restart) is replaced before use, silently — that costs
  no retry, no backoff and no breaker failure.

The client records every acked receipt (:attr:`ResilientClient.acked`), so
crash drills can check that *every event the client saw acknowledged* is
present after recovery — the WAL's headline guarantee.
``loadgen.replay``/``loadgen.ingest_events`` drive all traffic through this
client, so the serve benchmarks exercise the real retry path.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import socket
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import BinaryIO

from repro.errors import CircuitOpenError, ConfigurationError, RequestFailedError
from repro.serving import wire
from repro.serving.sla import clock as sla_clock

#: HTTP statuses the client treats as transient backpressure, not failure.
RETRYABLE_STATUSES = (429, 503)


@dataclass(frozen=True)
class ClientRetryPolicy:
    """How a :class:`ResilientClient` paces itself under failure."""

    #: Total tries per request (first attempt included).
    max_attempts: int = 5
    #: Socket timeout per attempt, seconds.
    timeout: float = 10.0
    #: Backoff before the second attempt, seconds; doubles per attempt.
    backoff_base: float = 0.05
    #: Upper bound on any single backoff wait, seconds.
    backoff_cap: float = 2.0
    #: Multiplicative jitter amplitude (0.25 = +/-25% of the wait).
    jitter: float = 0.25
    #: Seed of the jitter stream (combined with the client id).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if not self.timeout > 0:
            raise ConfigurationError("timeout must be positive")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff values must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")


class CircuitBreaker:
    """Fail fast after consecutive transport failures.

    Closed → open after ``failure_threshold`` consecutive failures; open →
    half-open after ``reset_after`` seconds (one probe allowed); the
    probe's outcome closes or re-opens the circuit.  Backpressure statuses
    (429/503) do *not* count as failures — the server is alive and asking
    for patience, which is the opposite of a dead endpoint.
    """

    def __init__(self, *, failure_threshold: int = 5, reset_after: float = 1.0) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be at least 1")
        if not reset_after > 0:
            raise ConfigurationError("reset_after must be positive")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        """``closed`` | ``open`` | ``half_open``."""
        if self._opened_at is None:
            return "closed"
        if self._probing or sla_clock() - self._opened_at >= self.reset_after:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """May a request be issued right now?"""
        if self._opened_at is None:
            return True
        if self._probing:
            return False  # one probe in flight is enough
        if sla_clock() - self._opened_at >= self.reset_after:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._probing = False
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._opened_at = sla_clock()


def _jitter_seed(seed: int, client_id: str) -> int:
    """A stable per-client jitter seed (``hash()`` is salted; sha256 is not)."""
    digest = hashlib.sha256(client_id.encode("utf-8")).digest()
    return seed ^ int.from_bytes(digest[:8], "big")


def _peer_closed(sock: socket.socket) -> bool:
    """Whether an idle kept-alive connection can no longer carry a request.

    Between requests the server sends nothing, so a readable socket holds
    an EOF (the server hung up), a reset, or bytes no request asked for:
    the connection is finished either way.
    """
    timeout = sock.gettimeout()
    sock.settimeout(0.0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        return True
    finally:
        sock.settimeout(timeout)
    return True


#: What a request line's path may not hold: whitespace or a control character.
_UNSAFE_PATH = re.compile(r"[\x00-\x20\x7f]")

#: A header name: an RFC 7230 token.
_HEADER_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: What a header value may not hold: a control character other than tab.
_UNSAFE_VALUE = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")


def _encode_request(
    method: str, path: str, host: str, headers: dict[str, str], body: bytes
) -> bytes:
    """One request's bytes: its head, with ``Host`` and ``Content-Length``, then ``body``.

    A path or header that would break the head's framing raises
    :class:`~repro.errors.ConfigurationError` before anything is sent.
    """
    if not path.isascii() or _UNSAFE_PATH.search(path):
        raise ConfigurationError(f"request path must be ASCII without spaces: {path!r}")
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    for name, value in headers.items():
        if not _HEADER_NAME.fullmatch(name) or _UNSAFE_VALUE.search(value):
            raise ConfigurationError(f"invalid request header {name!r}: {value!r}")
        lines.append(f"{name}: {value}")
    if body or method != "GET":
        lines.append(f"Content-Length: {len(body)}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1") + body


def _read_response(rfile: BinaryIO) -> tuple[int, bytes, bool]:
    """One response off a connection: ``(status, body, closes)``.

    ``closes`` is whether the server closes the connection after it.  A
    response that cannot be delimited raises :class:`ConnectionError`, so
    the attempt fails like a broken connection and its body is never used.
    """
    try:
        line = wire.read_line(rfile)
        if not line:
            raise ConnectionError("the server closed the connection before responding")
        parts = line.split(None, 2)
        status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
        if not parts[0].startswith(b"HTTP/") or not 100 <= status <= 999:
            raise ConnectionError(f"bad status line {line!r}")
        headers = wire.read_fields(rfile)
    except wire.HeadError as error:
        raise ConnectionError(f"unreadable response head: {error}") from error
    if "Transfer-Encoding" in headers:
        raise ConnectionError("response uses Transfer-Encoding; only Content-Length is read")
    length = headers.get("Content-Length")
    if length is None or not (length.isascii() and length.isdigit()):
        raise ConnectionError(f"response has no valid Content-Length: {length!r}")
    body = rfile.read(int(length))
    if len(body) < int(length):
        raise ConnectionError(f"response body ended after {len(body)} of {length} bytes")
    return status, body, "close" in headers.get("Connection", "").lower()


class ResilientClient:
    """The retrying, circuit-breaking, exactly-once v1 API client.

    A client holds one persistent connection, the retry jitter stream and
    the auto idempotency-key counter, none of them locked: use one client
    per thread.  :meth:`close` (or a ``with`` block) releases the
    connection; a later request would open a new one.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client_id: str = "client",
        policy: ClientRetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleeper: Callable[[float], None] | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.policy = policy if policy is not None else ClientRetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._sleep = time.sleep if sleeper is None else sleeper
        self._rng = random.Random(_jitter_seed(self.policy.seed, client_id))
        self._batch_counter = 0
        #: Receipts of every acked ingest batch, in ack order.
        self.acked: list[dict[str, object]] = []
        #: Retries performed (sleeps taken) over the client's lifetime.
        self.retries = 0
        #: 429/503 responses absorbed over the client's lifetime.
        self.backpressure_responses = 0
        self._host_header = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        # The socket and its buffered reader; opened by the first request,
        # and again after close().
        self._connection: tuple[socket.socket, BinaryIO] | None = None

    def close(self) -> None:
        """Close the kept-alive connection."""
        if self._connection is not None:
            sock, rfile = self._connection
            self._connection = None
            rfile.close()
            sock.close()

    def __enter__(self) -> ResilientClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- one attempt -------------------------------------------------------

    def _once(
        self, method: str, path: str, body: object, headers: dict[str, str]
    ) -> tuple[int, object, bytes]:
        if self._connection is not None and _peer_closed(self._connection[0]):
            self.close()
        encoded = b""
        sent_headers = dict(headers)
        if body is not None:
            encoded = json.dumps(body, sort_keys=True).encode("utf-8")
            sent_headers["Content-Type"] = "application/json"
        request = _encode_request(method, path, self._host_header, sent_headers, encoded)
        try:
            if self._connection is None:
                sock = socket.create_connection((self.host, self.port), self.policy.timeout)
                self._connection = (sock, sock.makefile("rb"))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock, rfile = self._connection
            sock.sendall(request)
            status, raw, closes = _read_response(rfile)
        except BaseException:
            # The exchange broke off mid-request, so the connection's state
            # is unknown: drop it, and the next attempt reconnects.
            self.close()
            raise
        if closes:
            self.close()
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = None
        return status, payload, raw

    def _backoff(self, attempt: int, floor: float) -> float:
        """The jittered wait before retry number ``attempt`` (1-based)."""
        wait = min(self.policy.backoff_cap, self.policy.backoff_base * (2.0 ** (attempt - 1)))
        wait = max(wait, floor)
        scale = 1.0 + self.policy.jitter * (2.0 * self._rng.random() - 1.0)
        return min(self.policy.backoff_cap, max(0.0, wait * scale))

    # -- the retry loop ----------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: object = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, object, bytes]:
        """Issue one logical request, retrying transient failures.

        Returns ``(status, parsed_json_or_None, raw_bytes)`` for any
        non-retryable response (including 4xx — interpreting those is the
        caller's job).  Raises :class:`~repro.errors.CircuitOpenError`
        when the breaker refuses to try, and
        :class:`~repro.errors.RequestFailedError` when the retry budget
        runs out.
        """
        sent_headers = dict(headers or {})
        last_status: int | None = None
        last_error: str = "no attempt made"
        for attempt in range(1, self.policy.max_attempts + 1):
            if not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open for {self.host}:{self.port} "
                    f"(state {self.breaker.state!r}); refusing {method} {path}"
                )
            retry_floor = 0.0
            try:
                status, payload, raw = self._once(method, path, body, sent_headers)
            except OSError as error:
                self.breaker.record_failure()
                last_status = None
                last_error = f"{error.__class__.__name__}: {error}"
            else:
                if status not in RETRYABLE_STATUSES:
                    self.breaker.record_success()
                    return status, payload, raw
                # Backpressure: the server is alive and shedding — honor
                # its retry hint but do not trip the breaker.
                self.breaker.record_success()
                self.backpressure_responses += 1
                last_status = status
                last_error = f"HTTP {status}: {payload!r}"
                if isinstance(payload, dict):
                    hint = payload.get("retry_after")
                    if isinstance(hint, (int, float)) and not isinstance(hint, bool):
                        retry_floor = min(float(hint), self.policy.backoff_cap)
            if attempt < self.policy.max_attempts:
                self.retries += 1
                self._sleep(self._backoff(attempt, retry_floor))
        raise RequestFailedError(
            f"{method} {path} failed after {self.policy.max_attempts} attempts "
            f"(last: {last_error})",
            status=last_status,
            attempts=self.policy.max_attempts,
        )

    # -- v1 API ------------------------------------------------------------

    def ingest(
        self,
        events: list[dict[str, object]],
        *,
        batch_key: str | None = None,
    ) -> dict[str, object]:
        """Ingest one batch exactly once; returns the server's receipt.

        The batch's idempotency key (generated when ``batch_key`` is not
        given) rides every retry, so a re-sent batch the server already
        acked comes back ``duplicate: true`` instead of double-counting.
        Non-2xx terminal responses raise
        :class:`~repro.errors.RequestFailedError`.
        """
        if batch_key is None:
            batch_key = f"{self.client_id}-{self._batch_counter}"
            self._batch_counter += 1
        status, payload, _ = self.request(
            "POST",
            "/v1/feedback",
            {"events": events},
            headers={"Idempotency-Key": batch_key, "X-Client-Id": self.client_id},
        )
        if status != 200 or not isinstance(payload, dict):
            raise RequestFailedError(
                f"ingest rejected with HTTP {status}: {payload!r}", status=status
            )
        self.acked.append(payload)
        return payload

    def scores(self, limit: int | None = None) -> dict[str, object]:
        path = "/v1/scores" if limit is None else f"/v1/scores?limit={limit}"
        status, payload, _ = self.request("GET", path)
        if status != 200 or not isinstance(payload, dict):
            raise RequestFailedError(
                f"scores query failed with HTTP {status}", status=status
            )
        return payload

    def raw_scores(self) -> bytes:
        """The exact ``/v1/scores`` bytes (for byte-identity drills)."""
        status, _, raw = self.request("GET", "/v1/scores")
        if status != 200:
            raise RequestFailedError(
                f"scores query failed with HTTP {status}", status=status
            )
        return raw

    def peer(self, peer_id: str) -> dict[str, object]:
        status, payload, _ = self.request("GET", f"/v1/peers/{peer_id}")
        if status not in (200, 404) or not isinstance(payload, dict):
            raise RequestFailedError(
                f"peer query failed with HTTP {status}", status=status
            )
        return payload

    def health(self) -> dict[str, object]:
        status, payload, _ = self.request("GET", "/v1/health")
        if status != 200 or not isinstance(payload, dict):
            raise RequestFailedError(
                f"health query failed with HTTP {status}", status=status
            )
        return payload

    def snapshot(self, path: str | None = None) -> dict[str, object]:
        body = None if path is None else {"path": path}
        status, payload, _ = self.request("POST", "/v1/snapshot", body)
        if status != 200 or not isinstance(payload, dict):
            raise RequestFailedError(
                f"snapshot failed with HTTP {status}: {payload!r}", status=status
            )
        return payload

    @property
    def total_acked_events(self) -> int:
        """Events the server has acknowledged to this client.

        Each batch key lands in :attr:`acked` at most once (the client
        only re-sends after a failed attempt), so ``duplicate`` receipts —
        the server confirming a batch whose original ack got lost — count
        like any other: those events are durably present exactly once.
        """
        total = 0
        for receipt in self.acked:
            accepted = receipt.get("accepted")
            if isinstance(accepted, int) and not isinstance(accepted, bool):
                total += accepted
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResilientClient {self.client_id}@{self.host}:{self.port} "
            f"acked={len(self.acked)} retries={self.retries}>"
        )
