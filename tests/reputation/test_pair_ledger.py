"""The local-trust pair ledger at serving scale.

From ``DENSE_TRUST_THRESHOLD`` peers up, EigenTrust and PowerTrust build
``C`` from the builder's incrementally folded pair ledger.  A refresh must
never fall back to rescanning the report log, and what it publishes must
equal the cold rescan's scores byte for byte.
"""

import random
from unittest import mock

import pytest

from repro.core import accel, backend
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.powertrust import PowerTrust
from repro.simulation.transaction import Feedback

N_PEERS = 140
PER_BATCH = 700


def _batches():
    """Three batches of reports among ``N_PEERS`` peers, every peer a
    subject in each batch, one report in ten anonymous."""
    rng = random.Random(5)
    peers = [f"p{i:03d}" for i in range(N_PEERS)]
    batches = []
    for batch_index in range(3):
        batch = []
        for offset in range(PER_BATCH):
            transaction_id = batch_index * PER_BATCH + offset
            subject = peers[transaction_id % N_PEERS]
            rater = None if rng.random() < 0.1 else rng.choice(peers)
            batch.append(
                Feedback(
                    transaction_id=transaction_id,
                    time=float(batch_index),
                    subject=subject,
                    rating=rng.choice([0.0, 1.0, 1.0]),
                    rater=rater,
                )
            )
        batches.append(batch)
    return batches


@pytest.mark.parametrize(
    "factory",
    [
        lambda: EigenTrust(pretrusted=["p000", "p001"]),
        lambda: PowerTrust(n_power_nodes=3),
    ],
    ids=["eigentrust", "powertrust"],
)
def test_serving_scale_refresh_never_rescans_the_report_log(factory):
    with accel.override(incremental_refresh=True, disable_all=False):
        incremental = factory()
    with accel.override(incremental_refresh=False):
        cold = factory()
    rescan = mock.patch.object(
        backend,
        "local_trust_matrix_from_columns",
        side_effect=AssertionError("report log rescanned"),
    )
    for batch in _batches():
        with accel.override(incremental_refresh=True, disable_all=False), rescan as guard:
            for feedback in batch:
                incremental.record_feedback(feedback)
            published = incremental.refresh()
        assert guard.call_count == 0
        assert len(published) >= backend.DENSE_TRUST_THRESHOLD
        with accel.override(incremental_refresh=False):
            for feedback in batch:
                cold.record_feedback(feedback)
            expected = cold.refresh()
        assert list(published.items()) == list(expected.items())
