"""The resilient client: retries, jitter, the breaker, exactly-once ingest."""

import socket
import threading

import pytest

import repro.faults as faults
from repro.errors import CircuitOpenError, ConfigurationError, RequestFailedError
from repro.serving.client import CircuitBreaker, ClientRetryPolicy, ResilientClient
from repro.serving.http import create_http_server
from repro.serving.service import ReputationService

EVENTS = [
    {"subject": "alice", "rating": 1.0, "time": 0, "transaction_id": 0},
    {"subject": "bob", "rating": 0.2, "time": 1, "transaction_id": 1},
]


@pytest.fixture()
def service():
    return ReputationService(refresh_every=2)


@pytest.fixture()
def server(service):
    server = create_http_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def make_client(server, **kwargs):
    host, port = server.server_address[:2]
    kwargs.setdefault("sleeper", lambda wait: None)
    return ResilientClient(host, port, **kwargs)


def free_port():
    """A port with nothing listening on it (connection refused, fast)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestPolicyValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientRetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ClientRetryPolicy(timeout=0)
        with pytest.raises(ConfigurationError):
            ClientRetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)


class TestBackoffAndJitter:
    def test_same_seed_same_client_id_same_waits(self):
        waits = []
        for _ in range(2):
            client = ResilientClient("h", 1, client_id="c", policy=ClientRetryPolicy(seed=3))
            waits.append([client._backoff(attempt, 0.0) for attempt in range(1, 6)])
        assert waits[0] == waits[1]

    def test_different_client_ids_decorrelate(self):
        a = ResilientClient("h", 1, client_id="a", policy=ClientRetryPolicy(seed=3))
        b = ResilientClient("h", 1, client_id="b", policy=ClientRetryPolicy(seed=3))
        assert [a._backoff(i, 0.0) for i in range(1, 6)] != [
            b._backoff(i, 0.0) for i in range(1, 6)
        ]

    def test_waits_double_then_cap(self):
        policy = ClientRetryPolicy(backoff_base=0.1, backoff_cap=0.4, jitter=0.0)
        client = ResilientClient("h", 1, policy=policy)
        assert [client._backoff(i, 0.0) for i in range(1, 5)] == [0.1, 0.2, 0.4, 0.4]

    def test_retry_after_hint_floors_the_wait(self):
        policy = ClientRetryPolicy(backoff_base=0.01, backoff_cap=2.0, jitter=0.25)
        client = ResilientClient("h", 1, policy=policy)
        wait = client._backoff(1, 0.5)
        assert 0.5 * 0.75 <= wait <= 0.5 * 1.25

    def test_jitter_stays_within_bounds(self):
        policy = ClientRetryPolicy(backoff_base=0.1, backoff_cap=1.0, jitter=0.25)
        client = ResilientClient("h", 1, policy=policy)
        for attempt in range(1, 20):
            wait = client._backoff(attempt, 0.0)
            assert 0.0 <= wait <= 1.0


class TestCircuitBreaker:
    def test_open_after_threshold_then_half_open_probe(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr("repro.serving.client.sla_clock", lambda: now[0])
        breaker = CircuitBreaker(failure_threshold=2, reset_after=1.0)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        now[0] = 1.5
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # a second concurrent probe is refused
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr("repro.serving.client.sla_clock", lambda: now[0])
        breaker = CircuitBreaker(failure_threshold=1, reset_after=1.0)
        breaker.record_failure()
        now[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_dead_endpoint_trips_breaker_and_fails_fast(self):
        port = free_port()
        client = ResilientClient(
            "127.0.0.1",
            port,
            policy=ClientRetryPolicy(max_attempts=5, timeout=0.5, backoff_base=0.0),
            breaker=CircuitBreaker(failure_threshold=2, reset_after=60.0),
            sleeper=lambda wait: None,
        )
        with pytest.raises(CircuitOpenError):
            client.request("GET", "/v1/health")
        # The circuit is open: the next request does not touch the socket.
        with pytest.raises(CircuitOpenError):
            client.request("GET", "/v1/health")


class TestRetryLoop:
    def test_backpressure_retries_then_succeeds(self, server, service):
        waits = []
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(site="http.admit", action="degrade", times=2),)
        )
        with make_client(server, sleeper=waits.append) as client, faults.active(plan):
            receipt = client.ingest(EVENTS)
        assert receipt["accepted"] == 2
        assert client.backpressure_responses == 2
        assert client.retries == 2
        assert len(waits) == 2
        # Sheds honored the server's retry hint as a floor.
        assert all(wait >= service.config.retry_after * 0.75 for wait in waits)
        # Backpressure never trips the breaker.
        assert client.breaker.state == "closed"

    def test_persistent_read_only_exhausts_budget(self, server, service):
        service.enter_read_only("drill")
        with make_client(server, policy=ClientRetryPolicy(max_attempts=2)) as client:
            with pytest.raises(RequestFailedError) as info:
                client.ingest(EVENTS)
        assert info.value.status == 503
        assert info.value.attempts == 2
        assert client.backpressure_responses == 2

    def test_non_retryable_status_returns_immediately(self, server):
        with make_client(server) as client:
            status, payload, _ = client.request("POST", "/v1/feedback", {"events": "nope"})
        assert status == 400
        assert "must be a list" in payload["error"]
        assert client.retries == 0


class TestExactlyOnce:
    def test_auto_keys_increment(self, server, service):
        with make_client(server, client_id="c9") as client:
            client.ingest(EVENTS[:1])
            client.ingest(EVENTS[1:])
        assert service.health()["ingested"] == 2
        assert [receipt["duplicate"] for receipt in client.acked] == [False, False]
        assert client.total_acked_events == 2

    def test_retried_batch_never_double_ingests(self, server, service):
        with make_client(server) as client:
            first = client.ingest(EVENTS, batch_key="once")
            second = client.ingest(EVENTS, batch_key="once")
        assert first["duplicate"] is False
        assert second["duplicate"] is True
        assert second["seq"] == first["seq"]
        assert service.health()["ingested"] == 2
        # Explicitly re-sending a key appends a second (duplicate) receipt;
        # the auto-key path the drills rely on sends each key once.
        assert client.total_acked_events == 4

    def test_helpers_roundtrip(self, server):
        with make_client(server) as client:
            client.ingest(EVENTS)
            scores = client.scores()
            assert scores["watermark"] == 2
            assert client.raw_scores().endswith(b"\n")
            assert client.peer("alice")["known"] is True
            assert client.health()["status"] == "ok"
