"""Route semantics of the stdlib HTTP adapter."""

import http.client
import json
import threading

import pytest

import repro.faults as faults
from repro.reputation.base import ScoreView
from repro.serving.http import _scores_payload, create_http_server
from repro.serving.service import ReputationService


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


def request(server, method, path, body=None, headers=None):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        sent = {"Content-Type": "application/json"} if payload else {}
        sent.update(headers or {})
        connection.request(method, path, body=payload, headers=sent)
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw), raw
    finally:
        connection.close()


def request_full(server, method, path, body=None, headers=None):
    """Like :func:`request` but also returns the response headers."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        sent = {"Content-Type": "application/json"} if payload else {}
        sent.update(headers or {})
        connection.request(method, path, body=payload, headers=sent)
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw), dict(response.getheaders())
    finally:
        connection.close()


EVENTS = [
    {"subject": "alice", "rating": 1.0, "time": 0, "transaction_id": 0},
    {"subject": "alice", "rating": 1.0, "time": 1, "transaction_id": 1},
    {"subject": "bob", "rating": 0.2, "time": 2, "transaction_id": 2},
    {"subject": "bob", "rating": 0.1, "time": 3, "transaction_id": 3},
]


class TestFeedbackRoute:
    def test_single_object(self, server):
        status, body, _ = request(server, "POST", "/v1/feedback", EVENTS[0])
        assert status == 200
        assert body == {
            "accepted": 1,
            "duplicate": False,
            "ingested": 1,
            "refreshed": False,
            "seq": 0,
            "watermark": 0,
        }

    def test_batch_envelope(self, server):
        status, body, _ = request(server, "POST", "/v1/feedback", {"events": EVENTS})
        assert status == 200
        assert body["accepted"] == 4
        assert body["refreshed"] is True
        assert body["watermark"] == 4

    def test_bare_list(self, server):
        status, body, _ = request(server, "POST", "/v1/feedback", EVENTS[:2])
        assert status == 200
        assert body["accepted"] == 2

    def test_invalid_event_is_400(self, server):
        status, body, _ = request(server, "POST", "/v1/feedback", {"rating": 0.5})
        assert status == 400
        assert "subject" in body["error"]

    def test_non_list_events_is_400(self, server):
        status, body, _ = request(server, "POST", "/v1/feedback", {"events": "nope"})
        assert status == 400
        assert "'events' must be a list" in body["error"]

    def test_invalid_json_is_400(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/feedback",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()


class TestScoresRoute:
    def test_scores_after_refresh(self, server):
        request(server, "POST", "/v1/feedback", {"events": EVENTS})
        status, body, _ = request(server, "GET", "/v1/scores")
        assert status == 200
        assert body["watermark"] == 4
        assert body["pending"] == 0
        assert body["ranking"][0] == "alice"
        assert set(body["scores"]) == {"alice", "bob"}

    def test_limit_truncates(self, server):
        request(server, "POST", "/v1/feedback", {"events": EVENTS})
        status, body, _ = request(server, "GET", "/v1/scores?limit=1")
        assert status == 200
        assert body["ranking"] == ["alice"]
        assert list(body["scores"]) == ["alice"]

    def test_bad_limit_is_400(self, server):
        status, body, _ = request(server, "GET", "/v1/scores?limit=abc")
        assert status == 400
        assert "limit" in body["error"]

    @pytest.mark.parametrize("limit", [None, 0, 1, 10, -1, 1000])
    def test_body_matches_a_fresh_sort_of_the_scores(self, server, service, limit):
        # Seven peers over five rating levels, so some scores tie and the
        # ranking's peer-id tie break shows in the body.
        events = [
            {"subject": f"p{i % 7}", "rating": (i % 5) / 4, "time": i, "transaction_id": i}
            for i in range(41)
        ]
        request(server, "POST", "/v1/feedback", {"events": events})
        view = ScoreView(dict(service.scores()), default_score=service.config.default_score)
        ranking = view.ranking() if limit is None else view.ranking()[: max(limit, 0)]
        expected = {
            "watermark": 40,
            "pending": 1,
            "default_score": view.default_score,
            "scores": {peer: view[peer] for peer in ranking},
            "ranking": ranking,
        }
        path = "/v1/scores" if limit is None else f"/v1/scores?limit={limit}"
        _, _, raw = request(server, "GET", path)
        assert raw == (json.dumps(expected, sort_keys=True) + "\n").encode("utf-8")

    def test_body_comes_from_one_read(self, service):
        """A refresh landing between the reads must not relabel the scores."""
        service.ingest_many(EVENTS[:2])
        published = dict(service.scores())
        read = service.scores

        def read_then_refresh():
            view = read()
            service.ingest_many(EVENTS[2:])  # crosses the next refresh
            return view

        service.scores = read_then_refresh
        body = _scores_payload(service, None)
        assert service.watermark == 4
        assert (body["watermark"], body["pending"]) == (2, 0)
        assert body["scores"] == published
        assert body["ranking"] == ["alice"]


class TestPeersRoute:
    def test_known_peer(self, server):
        request(server, "POST", "/v1/feedback", {"events": EVENTS})
        status, body, _ = request(server, "GET", "/v1/peers/alice")
        assert status == 200
        assert body["peer_id"] == "alice"
        assert body["known"] is True
        assert body["rank"] == 1

    def test_unknown_peer_is_404_with_default_score(self, server, service):
        status, body, _ = request(server, "GET", "/v1/peers/mallory")
        assert status == 404
        assert body["known"] is False
        assert body["score"] == service.config.default_score

    def test_nested_path_is_404(self, server):
        status, body, _ = request(server, "GET", "/v1/peers/a/b")
        assert status == 404
        assert "no such route" in body["error"]


class TestSnapshotRoute:
    def test_snapshot_to_posted_path(self, server, service, tmp_path):
        request(server, "POST", "/v1/feedback", {"events": EVENTS})
        path = tmp_path / "svc.ckpt"
        status, body, _ = request(server, "POST", "/v1/snapshot", {"path": str(path)})
        assert status == 200
        assert body["ingested"] == 4
        assert path.exists()
        restored = ReputationService.restore(str(path))
        assert restored.scores() == service.scores()

    def test_snapshot_without_path_is_400(self, server):
        status, body, _ = request(server, "POST", "/v1/snapshot")
        assert status == 400
        assert "no snapshot path" in body["error"]

    def test_server_default_snapshot_path(self, service, tmp_path):
        path = tmp_path / "default.ckpt"
        server = create_http_server(service, port=0, snapshot_path=str(path))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, _, _ = request(server, "POST", "/v1/snapshot")
            assert status == 200
            assert path.exists()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestHealthAndRouting:
    def test_health(self, server):
        status, body, _ = request(server, "GET", "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["mechanism"] == "beta"
        assert body["refresh_every"] == 2

    def test_unknown_routes_are_404(self, server):
        for method, path in [("GET", "/v2/scores"), ("POST", "/v1/scores")]:
            status, body, _ = request(server, method, path)
            assert status == 404
            assert "no such route" in body["error"]


class TestByteDeterminism:
    def test_two_servers_same_stream_answer_identically(self):
        raws = []
        for _ in range(2):
            service = ReputationService(refresh_every=2)
            server = create_http_server(service, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                request(server, "POST", "/v1/feedback", {"events": EVENTS})
                _, _, raw_scores = request(server, "GET", "/v1/scores")
                _, _, raw_peer = request(server, "GET", "/v1/peers/alice")
                raws.append((raw_scores, raw_peer))
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5)
        assert raws[0] == raws[1]


class TestEvidenceRoute:
    def test_slice(self, server):
        request(server, "POST", "/v1/feedback", {"events": EVENTS})
        status, body, _ = request(server, "GET", "/v1/evidence?start=1&limit=2")
        assert status == 200
        assert body["total"] == 4
        assert body["start"] == 1
        assert body["count"] == 2
        assert [event["transaction_id"] for event in body["events"]] == [1, 2]

    def test_full_log(self, server):
        request(server, "POST", "/v1/feedback", {"events": EVENTS})
        status, body, _ = request(server, "GET", "/v1/evidence")
        assert status == 200
        assert body["count"] == 4
        assert body["events"][0]["subject"] == "alice"

    def test_bad_start_is_400(self, server):
        status, body, _ = request(server, "GET", "/v1/evidence?start=-1")
        assert status == 400
        assert "start" in body["error"]


class TestMalformedPayloads:
    def test_non_dict_event_is_400(self, server):
        status, body, _ = request(server, "POST", "/v1/feedback", {"events": [EVENTS[0], 42]})
        assert status == 400
        assert body == {"error": "feedback event #1 must be a JSON object", "status": 400}

    def test_string_body_is_400(self, server):
        status, body, _ = request(server, "POST", "/v1/feedback", "nope")
        assert status == 400
        assert "must be an object or a list" in body["error"]

    def test_bad_content_length_is_400(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/feedback")
            connection.putheader("Content-Length", "nope")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            connection.close()


class TestIdempotency:
    def test_duplicate_key_returns_original_receipt(self, server):
        headers = {"Idempotency-Key": "batch-0"}
        status, first, _ = request(server, "POST", "/v1/feedback", {"events": EVENTS}, headers)
        assert status == 200
        assert first["duplicate"] is False
        status, second, _ = request(server, "POST", "/v1/feedback", {"events": EVENTS}, headers)
        assert status == 200
        assert second["duplicate"] is True
        assert second["accepted"] == first["accepted"]
        assert second["seq"] == first["seq"]
        _, health, _ = request(server, "GET", "/v1/health")
        assert health["ingested"] == 4

    def test_distinct_keys_both_ingest(self, server):
        request(server, "POST", "/v1/feedback", EVENTS[:2], {"Idempotency-Key": "a"})
        request(server, "POST", "/v1/feedback", EVENTS[2:], {"Idempotency-Key": "b"})
        _, health, _ = request(server, "GET", "/v1/health")
        assert health["ingested"] == 4


class TestOverloadAndReadOnly:
    def test_forced_shed_is_429_with_retry_after(self, server, service):
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(site="http.admit", action="degrade", times=1),)
        )
        with faults.active(plan):
            status, body, headers = request_full(server, "POST", "/v1/feedback", EVENTS[0])
        assert status == 429
        assert body["status"] == 429
        assert body["retry_after"] == service.config.retry_after
        assert "Retry-After" in headers
        assert service.admission.shed_total == 1
        # The shed request was never ingested.
        status, after, _ = request(server, "POST", "/v1/feedback", EVENTS[0])
        assert status == 200
        assert after["ingested"] == 1

    def test_rate_limit_is_429(self):
        service = ReputationService(refresh_every=2, client_rate=0.001, client_burst=1)
        server = create_http_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            headers = {"X-Client-Id": "greedy"}
            status, _, _ = request(server, "POST", "/v1/feedback", EVENTS[0], headers)
            assert status == 200
            status, body, _ = request(server, "POST", "/v1/feedback", EVENTS[1], headers)
            assert status == 429
            assert "rate limit" in body["error"]
            assert service.rate_limiter.limited_total == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_read_only_posts_are_503_reads_answer(self, server, service):
        request(server, "POST", "/v1/feedback", {"events": EVENTS})
        service.enter_read_only("operator drill")
        status, body, headers = request_full(server, "POST", "/v1/feedback", EVENTS[0])
        assert status == 503
        assert body["status"] == 503
        assert "Retry-After" in headers
        status, scores, _ = request(server, "GET", "/v1/scores")
        assert status == 200
        assert scores["watermark"] == 4
        _, health, _ = request(server, "GET", "/v1/health")
        assert health["status"] == "read_only"
        assert health["read_only_reason"] == "operator drill"
        service.resume_writes()
        status, _, _ = request(server, "POST", "/v1/feedback", EVENTS[0])
        assert status == 200


class TestErrorBodyParity:
    """Every error response is built by one mapping; pin its exact output."""

    def test_error_response_shapes(self):
        from repro.errors import ConfigurationError, OverloadError, ReadOnlyError
        from repro.serving.http import _error_response

        status, body, headers = _error_response(ConfigurationError("bad input"))
        assert (status, body, headers) == (400, {"error": "bad input", "status": 400}, {})

        status, body, headers = _error_response(OverloadError("full", retry_after=0.4))
        assert status == 429
        assert body == {"error": "full", "retry_after": 0.4, "status": 429}
        assert headers == {"Retry-After": "1"}

        status, body, headers = _error_response(ReadOnlyError("wal gone", retry_after=2.0))
        assert status == 503
        assert body == {"error": "wal gone", "retry_after": 2.0, "status": 503}
        assert headers == {"Retry-After": "2"}

    def test_decode_body_rejects_bad_json_identically(self):
        from repro.errors import ConfigurationError
        from repro.serving.http import _decode_body

        with pytest.raises(ConfigurationError, match="not valid JSON"):
            _decode_body(b"{not json")
