"""Refreshes fold only what was appended, at serving scale.

From ``DENSE_TRUST_THRESHOLD`` peers up, EigenTrust and PowerTrust build
``C`` from the builder's incrementally folded pair ledger; Beta, the
simple average and TrustMe fold their per-subject aggregates.  A refresh
must never restart a fold from the first report: the work counters of
:func:`repro._profiling.profiled` show each refresh folding exactly the
reports appended since the previous one.  What it publishes must equal
the rescan twin's scores byte for byte.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _profiling
from repro.core import backend
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.gathering import FeedbackStore, LocalTrustBuilder
from repro.reputation.powertrust import PowerTrust
from repro.reputation.trustme import TrustMeReputation
from repro.simulation.transaction import Feedback, FeedbackBatch
from tests.oracles import rescan

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
    ("live", "twin", "site"),
    [
        (
            lambda: EigenTrust(pretrusted=["p000", "p001"]),
            lambda: rescan.RescanEigenTrust(pretrusted=["p000", "p001"]),
            "folded.pair_ledger",
        ),
        (
            lambda: PowerTrust(n_power_nodes=3),
            lambda: rescan.RescanPowerTrust(n_power_nodes=3),
            "folded.pair_ledger",
        ),
    ],
    ids=["eigentrust", "powertrust"],
)
def test_serving_scale_refresh_never_rescans_the_report_log(live, twin, site):
    incremental = live()
    cold = twin()
    for batch in _batches():
        for feedback in batch:
            incremental.record_feedback(feedback)
            cold.record_feedback(feedback)
        with _profiling.profiled() as timer:
            published = incremental.refresh()
        # Beside the fold, the refresh counts its power-iteration steps.
        folds = {name: count for name, count in timer.work.items() if name.startswith("folded.")}
        assert folds == {site: PER_BATCH}
        assert len(published) >= backend.DENSE_TRUST_THRESHOLD
        assert list(published.items()) == list(cold.refresh().items())


@pytest.mark.parametrize(
    ("live", "twin", "site"),
    [
        (
            lambda: BetaReputation(forgetting=0.9),
            lambda: rescan.RescanBeta(forgetting=0.9),
            "folded.beta",
        ),
        (SimpleAverageReputation, rescan.RescanAverage, "folded.average"),
        # TrustMe's certificate gate admits every report here, and its
        # score is the average's.
        (TrustMeReputation, rescan.RescanAverage, "folded.trustme"),
    ],
    ids=["beta", "average", "trustme"],
)
def test_evidence_fold_refresh_never_rescans_the_report_log(live, twin, site):
    incremental = live()
    cold = twin()
    for batch in _batches():
        for feedback in batch:
            incremental.record_feedback(feedback)
            cold.record_feedback(feedback)
        with _profiling.profiled() as timer:
            published = incremental.refresh()
        assert timer.work == {site: PER_BATCH}
        assert list(published.items()) == list(cold.refresh().items())


def _ledger(builder):
    return (
        builder._pair_raters.tobytes(),
        builder._pair_subjects.tobytes(),
        builder._pair_sums.tobytes(),
        list(builder._pair_slots.items()),
    )


@given(
    reports=st.lists(
        st.tuples(st.integers(-1, 6), st.integers(0, 6), st.booleans()), min_size=1, max_size=80
    )
)
@settings(max_examples=80, deadline=None)
def test_ledger_folded_at_once_equals_the_one_folded_report_by_report(reports):
    """An empty ledger folds every stored report in array operations (the
    first read, the first after a restore or an eviction); the result, slot
    map and count included, must be the ledger that later reads build one
    appended report at a time."""
    store = FeedbackStore()
    stepwise = LocalTrustBuilder(store)
    with _profiling.profiled() as timer:
        for index, (rater, subject, positive) in enumerate(reports):
            store.extend(FeedbackBatch.of([
                Feedback(
                    transaction_id=index,
                    time=index,
                    subject=f"p{subject}",
                    rating=1.0 if positive else 0.0,
                    rater=None if rater < 0 else f"p{rater}",
                )
            ]))
            stepwise._fold()
    assert timer.work == {"folded.pair_ledger": len(reports)}
    at_once = LocalTrustBuilder(store)
    with _profiling.profiled() as timer:
        at_once._fold()
    assert timer.work == {"folded.pair_ledger": len(reports)}
    assert _ledger(at_once) == _ledger(stepwise)
