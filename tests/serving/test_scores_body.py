"""The full ``/v1/scores`` body: encoded once per publish, spliced per read.

:meth:`ReputationService.scores_json` keeps the encoded ``ranking`` and
``scores`` members with the publication they belong to and splices the
per-read fields around them.  Whatever the mechanism, the default score,
a restore or a refresh racing the read, the bytes must be the sorted-keys
encoding of the payload ``_scores_payload`` builds.
"""

import json
import random

import pytest

from repro.serving.http import _scores_payload, _scores_response_body
from repro.serving.service import ReputationService, ServiceConfig

MECHANISMS = ("average", "beta", "eigentrust", "powertrust", "trustme")
BATCH = 5

#: Peer ids JSON escapes (a quote, a backslash, non-ASCII) beside plain ones.
PEERS = ("p0", "p1", 'q"uote', "zoë", "back\\slash", "日本", "p6")


def _events(count=120, seed=3):
    rng = random.Random(seed)
    return [
        {
            "subject": rng.choice(PEERS),
            "rating": rng.choice([0.0, 0.25, 0.5, 1.0]),
            "rater": None if rng.random() < 0.15 else rng.choice(PEERS),
            "time": index,
            "transaction_id": index,
        }
        for index in range(count)
    ]


def _encoded_payload(service):
    return json.dumps(_scores_payload(service, None), sort_keys=True).encode("utf-8") + b"\n"


def _check_body(service):
    """Two full reads (the first may encode, the second reuses) against the
    encoding of the payload the limit path builds."""
    expected = _encoded_payload(service)
    assert _scores_response_body(service, None) == expected
    assert _scores_response_body(service, None) == expected


@pytest.mark.parametrize("default_score", [0.5, 0.25])
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_served_body_is_the_sorted_keys_payload_at_every_batch(tmp_path, mechanism, default_score):
    events = _events()
    half = len(events) // 2
    config = ServiceConfig(mechanism=mechanism, refresh_every=7, default_score=default_score)
    service = ReputationService(config)
    _check_body(service)
    for start in range(0, half, BATCH):
        service.ingest_many(events[start : start + BATCH])
        _check_body(service)
    path = str(tmp_path / "service.ckpt")
    service.snapshot(path)
    restored = ReputationService.restore(path)
    _check_body(restored)
    for start in range(half, len(events), BATCH):
        for session in (service, restored):
            session.ingest_many(events[start : start + BATCH])
            _check_body(session)
        assert restored.scores_json() == service.scores_json()
    assert service.watermark > half


def test_body_comes_from_one_read():
    """A refresh landing between the read and the encode must not relabel
    the scores: the members are those of the publication the read saw."""
    service = ReputationService(refresh_every=4)
    events = _events(8)
    service.ingest_many(events[:4])
    published = dict(service.scores())
    read = service.scores

    def read_then_refresh():
        view = read()
        service.ingest_many(events[4:])  # crosses the next refresh
        return view

    service.scores = read_then_refresh
    body = json.loads(service.scores_json())
    assert service.watermark == 8
    assert (body["watermark"], body["pending"]) == (4, 0)
    assert body["scores"] == published
    del service.scores
    assert json.loads(service.scores_json())["watermark"] == 8
    _check_body(service)


def test_health_counts_each_encode_and_each_full_read():
    service = ReputationService(refresh_every=4)
    events = _events(8)

    def bodies():
        return service.health()["scores_bodies"]

    assert bodies() == {"encoded": 0, "served": 0}
    service.ingest_many(events[:4])
    service.scores_json()
    service.scores_json()
    assert bodies() == {"encoded": 1, "served": 2}
    # A limit read, the ranking, a peer and the bare view encode nothing.
    _scores_response_body(service, 3)
    service.ranking()
    service.peer("p0")
    service.scores()
    assert bodies() == {"encoded": 1, "served": 2}
    service.ingest_many(events[4:6])  # pending changes, the publication does not
    assert json.loads(service.scores_json())["pending"] == 2
    assert bodies() == {"encoded": 1, "served": 3}
    service.ingest_many(events[6:8])  # publishes
    service.scores_json()
    assert bodies() == {"encoded": 2, "served": 4}


def test_body_counters_stay_out_of_snapshots(tmp_path):
    events = _events(10)
    quiet = ReputationService(refresh_every=4)
    read = ReputationService(refresh_every=4)
    for session in (quiet, read):
        session.ingest_many(events)
    read.scores_json()
    read.scores_json()
    quiet.snapshot(str(tmp_path / "quiet.ckpt"))
    read.snapshot(str(tmp_path / "read.ckpt"))
    assert (tmp_path / "quiet.ckpt").read_bytes() == (tmp_path / "read.ckpt").read_bytes()
    restored = ReputationService.restore(str(tmp_path / "read.ckpt"))
    assert restored.health()["scores_bodies"] == {"encoded": 0, "served": 0}
