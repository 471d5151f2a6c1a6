"""Kept-alive connections: client reuse, request framing, idle reaping."""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.serving.http as serving_http
from repro.errors import RequestFailedError
from repro.serving.client import ClientRetryPolicy, ResilientClient
from repro.serving.http import create_http_server
from repro.serving.service import ReputationService

EVENTS = [
    {"subject": "alice", "rating": 1.0, "time": 0, "transaction_id": 0},
    {"subject": "bob", "rating": 0.2, "time": 1, "transaction_id": 1},
]


class CountingServer:
    """An in-process server that counts connections opened and finished."""

    def __init__(self) -> None:
        self.service = ReputationService(refresh_every=2)
        self.server = create_http_server(self.service, host="127.0.0.1", port=0)
        self.host, self.port = self.server.server_address[:2]
        self.opened = 0
        self.finished = 0
        lock = threading.Lock()
        counts = self
        base = self.server.RequestHandlerClass

        class Counting(base):
            def setup(self):
                with lock:
                    counts.opened += 1
                super().setup()

            def finish(self):
                super().finish()
                with lock:
                    counts.finished += 1

        self.server.RequestHandlerClass = Counting
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def wait_finished(self, count: int, timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.finished >= count:
                return True
            time.sleep(0.01)
        return False

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


@pytest.fixture()
def counted():
    server = CountingServer()
    try:
        yield server
    finally:
        server.stop()


def client_for(server: CountingServer, **kwargs) -> ResilientClient:
    kwargs.setdefault("sleeper", lambda wait: None)
    return ResilientClient(server.host, server.port, **kwargs)


def raw_connection(server: CountingServer) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(server.host, server.port, timeout=10)


def peer_has_closed(sock: socket.socket, timeout: float = 5.0) -> bool:
    """Whether the server closes ``sock`` within ``timeout`` seconds."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    except TimeoutError:
        return False


class TestOneConnectionPerClient:
    def test_fifty_requests_open_one_connection(self, counted):
        with client_for(counted) as client:
            for index in range(25):
                client.ingest([dict(EVENTS[index % 2], time=index, transaction_id=index)])
                client.scores(limit=1)
            assert counted.opened == 1
            assert counted.service.health()["ingested"] == 25
            assert client.retries == 0

    def test_reused_connection_has_no_delayed_ack_stall(self, counted):
        connection = raw_connection(counted)
        try:
            begin = time.perf_counter()
            for _ in range(50):
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - begin
        finally:
            connection.close()
        assert counted.opened == 1
        assert elapsed < 1.0

    def test_close_releases_the_connection_and_a_request_reopens_it(self, counted):
        with client_for(counted) as client:
            client.health()
        assert counted.wait_finished(1)
        client.health()
        client.close()
        assert counted.opened == 2
        assert counted.wait_finished(2)


class TestRequestFraming:
    def test_unread_body_of_unknown_route_does_not_desync(self, counted):
        connection = raw_connection(counted)
        try:
            connection.request("POST", "/v1/nope", body=b'{"x": 1}')
            response = connection.getresponse()
            assert response.status == 404
            assert "no such route" in json.loads(response.read())["error"]
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/json"
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()
        assert counted.opened == 1

    def test_get_body_is_consumed(self, counted):
        connection = raw_connection(counted)
        try:
            connection.request("GET", "/v1/health", body=b'{"ignored": true}')
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            connection.request("GET", "/v1/scores")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["watermark"] == 0
        finally:
            connection.close()

    @pytest.mark.parametrize(
        ("header", "value", "message"),
        [
            ("Content-Length", str(serving_http.MAX_BODY_BYTES + 1), "exceeds"),
            ("Content-Length", "-5", "invalid Content-Length"),
            ("Transfer-Encoding", "chunked", "Transfer-Encoding"),
        ],
    )
    def test_unconsumable_body_gets_400_and_a_closed_connection(
        self, counted, header, value, message
    ):
        connection = raw_connection(counted)
        try:
            connection.putrequest("POST", "/v1/feedback")
            connection.putheader(header, value)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert message in json.loads(response.read())["error"]
        finally:
            connection.close()
        assert counted.wait_finished(1)
        assert counted.service.health()["ingested"] == 0


class TestIdleTimeout:
    def test_idle_connections_release_their_threads(self, counted, monkeypatch):
        monkeypatch.setattr(serving_http, "IDLE_TIMEOUT_SECONDS", 0.2)
        sockets = [socket.create_connection((counted.host, counted.port)) for _ in range(20)]
        try:
            assert counted.wait_finished(20)
            assert all(peer_has_closed(sock) for sock in sockets)
        finally:
            for sock in sockets:
                sock.close()

    def test_client_replaces_a_reaped_connection_silently(self, counted, monkeypatch):
        monkeypatch.setattr(serving_http, "IDLE_TIMEOUT_SECONDS", 0.2)
        with client_for(counted) as client:
            client.ingest(EVENTS)
            assert counted.wait_finished(1)
            assert client.health()["ingested"] == 2
            assert client.retries == 0
            assert client.breaker.state == "closed"
        assert counted.opened == 2


class TestServerClose:
    def test_server_close_ends_kept_alive_connections(self):
        server = CountingServer()
        client = client_for(server, policy=ClientRetryPolicy(max_attempts=1))
        try:
            client.health()
        finally:
            server.stop()
        assert server.wait_finished(1)
        # The kept connection no longer reaches the stopped server.
        with pytest.raises(RequestFailedError):
            client.health()
        client.close()


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _spawn_server(tmp_path: Path, tag: str, port: int, wal: Path, faults: str | None):
    port_file = tmp_path / f"port-{tag}"
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--port-file",
            str(port_file),
            "--refresh-every",
            "4",
            "--wal",
            str(wal),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return process
        if process.poll() is not None:
            raise RuntimeError("repro serve exited before binding its port")
        time.sleep(0.05)
    process.kill()
    raise RuntimeError("repro serve did not bind its port within 30s")


class TestServerKilledMidConnection:
    def test_killed_server_is_reached_again_through_the_retry_path(self, tmp_path):
        """A SIGKILL mid-request breaks the kept-alive connection; the retry
        reconnects to the restarted server and the batch lands once."""
        port = _free_port()
        wal = tmp_path / "serve.wal"
        batch = 2
        plan = json.dumps(
            {
                "seed": 0,
                "rules": [{"site": "wal.append", "action": "kill", "match": {"seq": 2 * batch}}],
            }
        )
        events = [
            {"subject": f"peer-{i % 3}", "rating": 0.5, "time": i, "transaction_id": i}
            for i in range(3 * batch)
        ]
        processes = [_spawn_server(tmp_path, "first", port, wal, plan)]

        def restart(wait: float) -> None:
            if len(processes) == 1:
                processes[0].wait(timeout=10)
                processes.append(_spawn_server(tmp_path, "second", port, wal, None))

        client = ResilientClient(
            "127.0.0.1",
            port,
            client_id="kept",
            policy=ClientRetryPolicy(timeout=5.0),
            sleeper=restart,
        )
        try:
            client.ingest(events[:batch])
            client.ingest(events[batch : 2 * batch])
            receipt = client.ingest(events[2 * batch :])  # the first server dies here
            assert processes[0].returncode == -signal.SIGKILL
            assert receipt["seq"] == 2 * batch
            assert receipt["duplicate"] is False
            assert client.retries == 1
            assert client.breaker.state == "closed"
            assert client.health()["ingested"] == 3 * batch
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                process.wait(timeout=10)
            client.close()
