"""Snapshots written while the store kept a Feedback list per subject.

The Beta, simple-average and TrustMe checkpoints under ``data/`` were
written by services whose ``FeedbackStore`` held each report as an object
in a per-subject list beside its columns, and whose session kept a second
copy of every report as its evidence.  Each was split off a refresh
boundary of ``build_trace("collusion-ring", n_users=16, rounds=8, seed=5)``
at ``refresh_every=8``:

* ``beta-collusion-ring`` and ``trustme-collusion-ring``: no cap, so the
  columns are in arrival order, and Beta has reports left to fold;
* ``average-collusion-ring-cap2``: ``max_evidence_per_subject=2``; an
  eviction left the columns stale, so they lack the report that came next.

A restored session rebuilds the store's log from the lists, in the order
that store's columns held them, and finishes with the body a session that
was never interrupted publishes.
"""

import json
from operator import attrgetter
from pathlib import Path

import pytest

from repro.serving.http import _scores_payload
from repro.serving.loadgen import build_trace
from repro.serving.service import ReputationService

DATA = Path(__file__).resolve().parent / "data"
TRACE = build_trace("collusion-ring", n_users=16, rounds=8, seed=5)


def _scores_body(service):
    service.refresh()
    return json.dumps(_scores_payload(service, None), sort_keys=True)


@pytest.mark.parametrize(
    "name",
    ["beta-collusion-ring", "average-collusion-ring-cap2", "trustme-collusion-ring"],
)
def test_list_layout_snapshot_restores_byte_identically(name):
    restored = ReputationService.restore(str(DATA / f"{name}.ckpt"))
    split = restored.health()["ingested"]
    assert split % restored.config.refresh_every != 0
    uninterrupted = ReputationService(restored.config)
    uninterrupted.ingest_many(TRACE[:split])
    # The same reports are held, but columns the list-keeping store rebuilt
    # after an eviction grouped them by subject instead of by arrival.
    by_id = attrgetter("transaction_id")
    assert sorted(restored.evidence(), key=by_id) == sorted(uninterrupted.evidence(), key=by_id)
    assert restored.evidence_count == uninterrupted.evidence_count

    restored.ingest_many(TRACE[split:])
    uninterrupted.ingest_many(TRACE[split:])
    assert _scores_body(restored) == _scores_body(uninterrupted)
