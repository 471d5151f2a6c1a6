"""The service's batch write path: one call validates its events into a
column batch, logs the batch as one WAL line and hands it to the mechanism
cut at every refresh boundary."""

import enum
import http.client
import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import durable
from repro.errors import ConfigurationError
from repro.serving.http import create_http_server
from repro.serving.loadgen import build_trace
from repro.serving.service import ReputationService, ServiceConfig
from repro.serving.wal import WriteAheadLog, config_digest
from repro.simulation.transaction import Feedback

DATA = Path(__file__).resolve().parent / "data"

GOOD = {"subject": "alice", "rating": 1.0, "rater": "bob"}


class Round(enum.IntEnum):
    FIRST = 1
    SECOND = 2


def _wal_service(tmp_path, **config):
    return ReputationService.recover(
        wal_path=str(tmp_path / "serve.wal"), config=ServiceConfig(**config), wal_fsync=False
    )


def _wire(transaction_id, time, subject, rating, rater, truthful=True):
    return {
        "rater": rater,
        "rating": rating,
        "subject": subject,
        "time": time,
        "transaction_id": transaction_id,
        "truthful": truthful,
    }


def _sealed(body):
    """A batch line as the WAL has written it since version 1: the
    sorted-keys JSON of one dict per event, with its digest."""
    return durable.encode({**body, "sha256": durable.digest(body)}) + b"\n"


class TestNegativeZero:
    @pytest.mark.parametrize(
        "mechanism, published", [("average", 0.0), ("trustme", 0.0), ("beta", 0.333333333)]
    )
    def test_negative_zero_rating_publishes_as_zero(self, mechanism, published):
        service = ReputationService(mechanism=mechanism, refresh_every=1)
        service.ingest({"subject": "alice", "rating": -0.0})
        body = service.scores_json()
        assert json.loads(body)["scores"] == {"alice": published}
        assert b"-0.0" not in body
        assert math.copysign(1.0, service.evidence()[0].rating) == 1.0

    def test_a_wal_holding_negative_zero_replays_to_zero(self, tmp_path):
        config = ServiceConfig(mechanism="average", refresh_every=1)
        path = tmp_path / "serve.wal"
        body = {
            "events": [_wire(0, 0, "alice", -0.0, None)],
            "key": None,
            "n": 1,
            "seq": 0,
        }
        assert b'"rating": -0.0' in durable.encode(body)
        header = json.dumps(
            {
                "config_sha256": config_digest(config.wal_identity()),
                "format": "repro-serve-wal",
                "version": 1,
            },
            sort_keys=True,
        )
        path.write_bytes(header.encode("utf-8") + b"\n" + _sealed(body))
        service = ReputationService.recover(wal_path=str(path), config=config, wal_fsync=False)
        try:
            assert json.loads(service.scores_json())["scores"] == {"alice": 0.0}
            assert b"-0.0" not in service.scores_json()
        finally:
            service.close()


#: Bodies ``json.loads`` refuses for a reason other than syntax: an integer
#: past Python's digit limit (a plain ValueError) and nesting deeper than
#: the parser recurses (RecursionError).
NOT_JSON = {
    "long-integer": b'{"subject": "alice", "rating": ' + b"1" * 5000 + b"}",
    "deep-nesting": b'{"events": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}


def _not_json(body):
    """The 400 text for a body ``json.loads`` refuses."""
    try:
        json.loads(body)
    except (ValueError, RecursionError) as error:
        return f"request body is not valid JSON: {error}"
    raise AssertionError("the body parses")


class TestRejectedBatch:
    @pytest.mark.parametrize("position", [0, 1, 3])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"subject": "alice", "rating": 1.5}, "rating must be in [0, 1], got 1.5"),
            ({"subject": "alice", "rating": float("nan")}, "rating must be in [0, 1], got nan"),
            ({"subject": "alice", "rating": float("inf")}, "rating must be in [0, 1], got inf"),
            ({"subject": "alice", "rating": 10**400}, "feedback needs a numeric 'rating' in [0, 1]"),
            ({"subject": "alice", "rating": "high"}, "feedback needs a numeric 'rating' in [0, 1]"),
            ({"subject": "", "rating": 0.5}, "feedback needs a non-empty string 'subject'"),
            ({"subject": "a", "rating": 0.5, "rater": 3}, "'rater' must be a string or null"),
            ({"subject": "a", "rating": 0.5, "typo": 1}, "unknown feedback fields: ['typo']"),
            (
                {"subject": "a", "rating": 0.5, "transaction_id": 2**63},
                "'transaction_id' must be a signed 64-bit integer",
            ),
        ],
    )
    def test_bad_event_leaves_wal_store_and_counters_untouched(
        self, tmp_path, position, bad, message
    ):
        service = _wal_service(tmp_path, mechanism="beta", refresh_every=2)
        try:
            service.ingest_many([GOOD, GOOD, GOOD], idempotency_key="first")
            wal_bytes = Path(service.wal.path).read_bytes()
            health = service.health()
            evidence = service.evidence()
            body = service.scores_json()
            events = [GOOD] * 4
            events.insert(position, bad)
            with pytest.raises(ConfigurationError) as raised:
                service.ingest_many(events, idempotency_key="second")
            assert str(raised.value) == message
            assert Path(service.wal.path).read_bytes() == wal_bytes
            assert service.evidence() == evidence
            after = service.health()
            for counter in ("ingested", "watermark", "pending", "refreshes", "dedup_keys", "wal"):
                assert after[counter] == health[counter], counter
            assert service.scores_json() == body
        finally:
            service.close()


    @pytest.mark.parametrize(
        "route, body, message",
        [
            pytest.param(
                "/v1/feedback",
                b'{"subject": "alice", "rating": 1' + b"0" * 400 + b"}",
                "feedback needs a numeric 'rating' in [0, 1]",
                id="integer-rating-past-the-double-range",
            ),
            pytest.param(
                "/v1/feedback",
                b'{"subject": "alice", "rating": 1e400}',
                "rating must be in [0, 1], got inf",
                id="float-rating-past-the-double-range",
            ),
            *(
                pytest.param(route, body, _not_json(body), id=f"{kind}-{route.rsplit('/', 1)[1]}")
                for kind, body in NOT_JSON.items()
                for route in ("/v1/feedback", "/v1/snapshot")
            ),
        ],
    )
    def test_an_unusable_body_is_a_400_that_changes_nothing(self, tmp_path, route, body, message):
        service = _wal_service(tmp_path, mechanism="beta", refresh_every=2)
        snapshot = tmp_path / "serve.ckpt"
        server = create_http_server(
            service, host="127.0.0.1", port=0, snapshot_path=str(snapshot)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        try:
            service.ingest_many([GOOD, GOOD, GOOD], idempotency_key="first")
            wal_bytes = Path(service.wal.path).read_bytes()
            health = service.health()
            scores = service.scores_json()
            connection.request("POST", route, body=body)
            sock = connection.sock
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read()) == {"error": message, "status": 400}
            assert Path(service.wal.path).read_bytes() == wal_bytes
            after = service.health()
            for counter in ("ingested", "watermark", "pending", "refreshes", "dedup_keys", "wal"):
                assert after[counter] == health[counter], counter
            assert service.scores_json() == scores
            assert not snapshot.exists()
            connection.request("GET", "/v1/scores")
            response = connection.getresponse()
            assert (response.status, response.read()) == (200, scores + b"\n")
            assert connection.sock is sock  # answered on the same connection
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()


class TestWalLineBytes:
    def test_line_is_the_encoding_of_one_dict_per_event(self, tmp_path):
        """An int rating is written as a float, a null rater stays null,
        ``time`` and ``transaction_id`` default to the ingest sequence, and
        ids that need JSON escapes are escaped as ``json.dumps`` does."""
        service = _wal_service(tmp_path, mechanism="average", refresh_every=4)
        events = [
            {"subject": "alice", "rating": 1},
            {"subject": 'q"uote\\back', "rating": 0.25, "rater": None, "time": 9},
            {"subject": "zoë-日本", "rating": 0, "rater": "tab\tnew\nline", "transaction_id": -3},
        ]
        try:
            service.ingest({"subject": "first", "rating": 0.5, "rater": "r"})
            service.ingest_many(events, idempotency_key='k"1')
        finally:
            service.close()
        lines = Path(tmp_path / "serve.wal").read_bytes().split(b"\n")
        assert lines[1] == _sealed(
            {"events": [_wire(0, 0, "first", 0.5, "r")], "key": None, "n": 1, "seq": 0}
        ).rstrip(b"\n")
        assert lines[2] + b"\n" == _sealed(
            {
                "events": [
                    _wire(1, 1, "alice", 1.0, None),
                    _wire(2, 9, 'q"uote\\back', 0.25, None),
                    _wire(-3, 3, "zoë-日本", 0.0, "tab\tnew\nline"),
                ],
                "key": 'k"1',
                "n": 3,
                "seq": 1,
            }
        )
        assert b'"rating": 1.0' in lines[2] and b'"rating": 0.0' in lines[2]

    def test_numpy_and_int_subclass_fields_round_trip(self, tmp_path):
        """A ``Feedback`` holding NumPy scalars or an ``IntEnum`` is logged
        with plain JSON numbers, and the WAL replays it to the same body."""
        service = _wal_service(tmp_path, mechanism="average", refresh_every=1)
        reports = [
            Feedback(
                transaction_id=np.int64(7),
                time=Round.SECOND,
                subject="alice",
                rating=np.float64(0.5),
                rater="bob",
                truthful=np.bool_(True),
            ),
            Feedback(
                transaction_id=Round.SECOND,
                time=np.int64(3),
                subject="bob",
                rating=np.float64(1.0),
                rater=None,
            ),
        ]
        try:
            service.ingest_many(reports)
            body = service.scores_json()
        finally:
            service.close()
        line = Path(tmp_path / "serve.wal").read_bytes().split(b"\n")[1] + b"\n"
        assert line == _sealed(
            {
                "events": [_wire(7, 2, "alice", 0.5, "bob"), _wire(2, 3, "bob", 1.0, None)],
                "key": None,
                "n": 2,
                "seq": 0,
            }
        )
        recovered = _wal_service(tmp_path, mechanism="average", refresh_every=1)
        try:
            assert recovered.scores_json() == body
            assert [type(report.time) for report in recovered.evidence()] == [int, int]
        finally:
            recovered.close()

    def test_empty_batch_is_one_empty_line(self, tmp_path):
        service = _wal_service(tmp_path)
        try:
            receipt = service.ingest_many([])
        finally:
            service.close()
        assert receipt.accepted == 0
        line = Path(tmp_path / "serve.wal").read_bytes().split(b"\n")[1] + b"\n"
        assert line == _sealed({"events": [], "key": None, "n": 0, "seq": 0})


class TestRefreshBoundaries:
    @pytest.mark.parametrize("mechanism", ["beta", "average", "trustme", "eigentrust"])
    def test_one_batch_publishes_what_one_by_one_ingest_does(self, mechanism):
        """A batch crossing several ``refresh_every`` boundaries publishes
        the same watermarks and bodies, at the same boundaries."""
        trace = build_trace("collusion-ring", n_users=12, rounds=6, seed=3)[:23]

        def published(chunks):
            service = ReputationService(mechanism=mechanism, refresh_every=3)
            bodies = []
            publish = service._publish

            def recording_publish():
                publish()
                bodies.append((service.watermark, service.scores_json()))

            service._publish = recording_publish
            receipts = [service.ingest_many(chunk) for chunk in chunks]
            return bodies, receipts[-1].watermark, service.health()["refreshes"]

        one_by_one = published([[event] for event in trace])
        batched = published([trace[:2], trace[2:19], trace[19:]])
        assert batched == one_by_one
        assert [watermark for watermark, _ in batched[0]] == list(range(3, 22, 3))


#: The trace each fixture under ``data/`` was split from.
FIXTURE_TRACES = {
    "average-collusion-ring-cap2": {"n_users": 16, "rounds": 8, "seed": 5},
    "beta-collusion-ring": {"n_users": 16, "rounds": 8, "seed": 5},
    "eigentrust-collusion-ring-half": {"n_users": 12, "rounds": 6, "seed": 3},
    "powertrust-collusion-ring-half": {"n_users": 12, "rounds": 6, "seed": 3},
    "trustme-collusion-ring": {"n_users": 16, "rounds": 8, "seed": 5},
    "trustme-collusion-ring-cap2": {"n_users": 16, "rounds": 16, "seed": 5},
}


def test_every_fixture_is_listed():
    assert sorted(path.stem for path in DATA.glob("*.ckpt")) == sorted(FIXTURE_TRACES)


@pytest.mark.parametrize("name", sorted(FIXTURE_TRACES))
def test_every_fixture_restores_to_the_uninterrupted_body(name):
    """Restored, each snapshot takes the rest of its trace through the batch
    path and publishes the body of a session that was never interrupted."""
    trace = build_trace("collusion-ring", **FIXTURE_TRACES[name])
    restored = ReputationService.restore(str(DATA / f"{name}.ckpt"))
    split = restored.health()["ingested"]
    uninterrupted = ReputationService(restored.config)
    uninterrupted.ingest_many(trace[:split])
    for session in (restored, uninterrupted):
        session.ingest_many(trace[split:])
        session.refresh()
    assert restored.scores_json() == uninterrupted.scores_json()
