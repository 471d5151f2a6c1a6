"""Snapshot restore across the pair-ledger layout, for the local-trust mechanisms.

The checkpoints under ``data/`` were written by EigenTrust and PowerTrust
services whose ``LocalTrustBuilder`` still held its pairwise totals as a
dict of dicts.  Restoring them must keep working: the builder re-folds its
columnar ledger from the restored store, and the session then publishes
exactly what a session that was never interrupted publishes.  The second
test splits a 140-peer stream, where every build takes the sparse branch,
off a refresh boundary.
"""

import json
from pathlib import Path

import pytest

from repro.serving.loadgen import build_trace
from repro.serving.service import ReputationService

DATA = Path(__file__).resolve().parent / "data"


def _uninterrupted_scores(trace, **config):
    service = ReputationService(**config)
    service.ingest_many(trace)
    return json.dumps(service.scores(), sort_keys=True)


@pytest.mark.parametrize("mechanism", ["eigentrust", "powertrust"])
def test_snapshot_with_dict_ledger_restores_byte_identically(mechanism):
    trace = build_trace("collusion-ring", n_users=12, rounds=6, seed=3)
    half = len(trace) // 2
    restored = ReputationService.restore(str(DATA / f"{mechanism}-collusion-ring-half.ckpt"))
    assert restored.health()["ingested"] == half
    restored.ingest_many(trace[half:])
    expected = _uninterrupted_scores(trace, mechanism=mechanism, refresh_every=8)
    assert json.dumps(restored.scores(), sort_keys=True) == expected


def test_sparse_scale_split_off_a_refresh_boundary(tmp_path):
    trace = build_trace("collusion-ring", n_users=140, rounds=20, seed=3)
    split = len(trace) // 2
    assert split % 32 != 0
    service = ReputationService(mechanism="eigentrust", refresh_every=32)
    service.ingest_many(trace[:split])
    path = tmp_path / "sparse.ckpt"
    service.snapshot(str(path))
    del service

    restored = ReputationService.restore(str(path))
    restored.ingest_many(trace[split:])
    expected = _uninterrupted_scores(trace, mechanism="eigentrust", refresh_every=32)
    assert json.dumps(restored.scores(), sort_keys=True) == expected
