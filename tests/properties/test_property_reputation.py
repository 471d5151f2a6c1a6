"""Property-based tests for the reputation mechanisms.

Invariants every mechanism must satisfy regardless of the feedback stream:
scores stay in [0, 1], known peers are exactly the store participants that
were rated, rankings are consistent with scores, and unanimous feedback is
scored on the right side of 0.5.  The feedback store holds each subject's
newest reports in arrival order, whatever its cap.  A per-subject fold
pickles without its aggregates and, unpickled, publishes what it would have.
"""

import json
import pickle
import pickletools
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.gathering import FeedbackStore
from repro.reputation.powertrust import PowerTrust
from repro.reputation.trustme import TrustMeReputation
from repro.simulation.transaction import Feedback, FeedbackBatch

SUBJECTS = ["s0", "s1", "s2", "s3"]
RATERS = ["r0", "r1", "r2"]

MECHANISMS = [
    SimpleAverageReputation,
    BetaReputation,
    EigenTrust,
    PowerTrust,
    TrustMeReputation,
]


@st.composite
def feedback_batches(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    batch = []
    for index in range(size):
        batch.append(
            Feedback(
                transaction_id=index,
                time=draw(st.integers(min_value=0, max_value=20)),
                subject=draw(st.sampled_from(SUBJECTS)),
                rating=draw(st.sampled_from([0.0, 1.0])),
                rater=draw(st.one_of(st.none(), st.sampled_from(RATERS))),
            )
        )
    return batch


@given(batch=feedback_batches(), mechanism=st.sampled_from(MECHANISMS))
@settings(max_examples=60, deadline=None)
def test_scores_always_in_unit_interval(batch, mechanism):
    system = mechanism()
    for feedback in batch:
        system.record_feedback(feedback)
    scores = system.scores()
    assert all(0.0 <= value <= 1.0 for value in scores.values())


@given(batch=feedback_batches(), mechanism=st.sampled_from(MECHANISMS))
@settings(max_examples=40, deadline=None)
def test_ranking_is_a_permutation_consistent_with_scores(batch, mechanism):
    system = mechanism()
    for feedback in batch:
        system.record_feedback(feedback)
    scores = system.scores()
    ranking = system.ranking()
    assert sorted(ranking) == sorted(scores)
    values = [scores[peer] for peer in ranking]
    assert values == sorted(values, reverse=True)


@given(
    mechanism=st.sampled_from([SimpleAverageReputation, BetaReputation, TrustMeReputation]),
    n_reports=st.integers(min_value=3, max_value=30),
)
@settings(max_examples=40, deadline=None)
def test_unanimous_feedback_lands_on_the_right_side(mechanism, n_reports):
    good = mechanism()
    bad = mechanism()
    for index in range(n_reports):
        good.record_feedback(
            Feedback(transaction_id=index, time=index, subject="peer", rating=1.0, rater="r0")
        )
        bad.record_feedback(
            Feedback(transaction_id=index, time=index, subject="peer", rating=0.0, rater="r0")
        )
    assert good.score("peer") >= 0.5
    assert bad.score("peer") <= 0.5
    assert good.score("peer") > bad.score("peer")


@given(batch=feedback_batches(), mechanism=st.sampled_from(MECHANISMS))
@settings(max_examples=30, deadline=None)
def test_reset_restores_a_blank_state(batch, mechanism):
    system = mechanism()
    for feedback in batch:
        system.record_feedback(feedback)
    system.reset()
    assert system.evidence_count == 0
    assert system.scores() == {}


@given(batch=feedback_batches())
@settings(max_examples=30, deadline=None)
def test_refresh_is_idempotent_without_new_evidence(batch):
    system = BetaReputation()
    for feedback in batch:
        system.record_feedback(feedback)
    first = system.refresh()
    second = system.refresh()
    assert first == second


def _newest_per_subject(reports, cap):
    """The capped-store model: each subject's newest ``cap`` reports (all
    of them uncapped), in arrival order."""
    totals = {}
    for feedback in reports:
        totals[feedback.subject] = totals.get(feedback.subject, 0) + 1
    seen = {}
    kept = []
    for feedback in reports:
        seen[feedback.subject] = seen.get(feedback.subject, 0) + 1
        if cap is None or totals[feedback.subject] - seen[feedback.subject] < cap:
            kept.append(feedback)
    return kept


@given(
    batch=feedback_batches(),
    cap=st.sampled_from([None, 0, 1, 2]),
    reads=st.sets(st.integers(min_value=0, max_value=39)),
)
@settings(max_examples=60, deadline=None)
def test_store_holds_each_subjects_newest_reports_in_arrival_order(batch, cap, reads):
    store = FeedbackStore(max_per_subject=cap)
    for index, feedback in enumerate(batch):
        store.extend(FeedbackBatch.of([feedback]))
        if index in reads:
            store.columns()  # compacts whatever was evicted so far
    expected = _newest_per_subject(batch, cap)
    columns = store.columns()
    assert [columns.feedback(row) for row in range(len(columns))] == expected
    assert len(store) == len(expected)
    held = {feedback.subject for feedback in expected}
    first_seen = dict.fromkeys(feedback.subject for feedback in batch)
    assert store.subjects() == [subject for subject in first_seen if subject in held]
    held_raters = {feedback.rater for feedback in expected} - {None}
    assert store.participants() == set(store.subjects()) | held_raters


@given(
    batch=feedback_batches(),
    cap=st.sampled_from([None, 1, 2, 4]),
    cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
    reads=st.sets(st.integers(min_value=0, max_value=40)),
)
@settings(max_examples=80, deadline=None)
def test_extend_equals_appending_row_by_row(batch, cap, cuts, reads):
    """A store fed the reports in drawn batches holds what a store fed them
    one row at a time holds (the same column bytes and interned ids,
    subjects, participants, length, version and epoch), and both hold the
    capped-store model's reports, whenever the participants are read."""
    bounds = sorted({0, len(batch), *(min(cut, len(batch)) for cut in cuts)})
    batched = FeedbackStore(max_per_subject=cap)
    for start, end in zip(bounds, bounds[1:], strict=False):
        batched.extend(FeedbackBatch.of(batch[start:end]))
        if end in reads:
            batched.sorted_participants()
    by_row = FeedbackStore(max_per_subject=cap)
    for index, feedback in enumerate(batch, 1):
        by_row.extend(FeedbackBatch.of([feedback]))
        if index in reads:
            by_row.sorted_participants()

    assert (batched.version, batched.epoch, len(batched)) == (
        by_row.version,
        by_row.epoch,
        len(by_row),
    )
    assert batched.version == len(batch)
    assert batched.subjects() == by_row.subjects()
    assert batched.sorted_participants() == by_row.sorted_participants()
    assert batched.sorted_participants() == sorted(batched.participants())
    left, right = batched.columns(), by_row.columns()
    assert left.id_for_code == right.id_for_code
    for name, column in vars(left).items():
        if isinstance(column, array):
            assert column.tobytes() == getattr(right, name).tobytes(), name
    expected = _newest_per_subject(batch, cap)
    assert [left.feedback(row) for row in range(len(left))] == expected
    assert len(batched) == len(expected)


#: The per-subject folds, with the constructor keywords each is drawn with.
FOLDS = [
    (BetaReputation, {"forgetting": 1.0}),
    (BetaReputation, {"forgetting": 0.9}),
    (SimpleAverageReputation, {}),
    (TrustMeReputation, {}),
]


def _pickled_names(blob: bytes) -> set[str]:
    """Every string a pickle names: attribute names, modules, classes."""
    return {arg for _, arg, _ in pickletools.genops(blob) if isinstance(arg, str)}


@given(
    fold=st.sampled_from(FOLDS),
    cap=st.sampled_from([None, 2]),
    reports=st.lists(
        st.tuples(
            st.sampled_from(SUBJECTS),
            st.sampled_from([0.0, 0.3, 0.7, 1.0]),
            st.integers(min_value=0, max_value=20),
        ),
        min_size=1,
        max_size=40,
    ),
    split=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_an_unpickled_fold_publishes_what_it_would_have(fold, cap, reports, split):
    """Pickle a fold at a drawn report and feed it the rest: at every
    refresh it publishes the bytes a fold that was never pickled does, and
    its pickle holds no aggregate (the first refresh refolds the store)."""
    mechanism, kwargs = fold
    kept = mechanism(max_evidence_per_subject=cap, **kwargs)
    restored = mechanism(max_evidence_per_subject=cap, **kwargs)
    for index, (subject, rating, time) in enumerate(reports):
        if index == min(split, len(reports) - 1):
            blob = pickle.dumps(restored)
            assert not {"_agg", "_agg_watermark"} & _pickled_names(blob)
            restored = pickle.loads(blob)
        feedback = Feedback(
            transaction_id=index, time=time, subject=subject, rating=rating, rater="r0"
        )
        kept.record_feedback(feedback)
        restored.record_feedback(feedback)
        assert json.dumps(restored.refresh()) == json.dumps(kept.refresh())
