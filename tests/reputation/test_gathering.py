"""Unit tests for the feedback store and local-trust builder."""

import pytest

from repro.reputation.gathering import FeedbackStore, LocalTrustBuilder
from repro.simulation.transaction import FeedbackBatch
from tests.conftest import make_feedback
from tests.oracles.reputation import normalized_local_trust, raw_local_trust, reports_about


class TestFeedbackStore:
    def test_add_and_query(self):
        store = FeedbackStore()
        store.extend(FeedbackBatch.of([make_feedback("bob", 1.0, rater="alice", transaction_id=1)]))
        store.extend(FeedbackBatch.of([make_feedback("bob", 0.0, rater="carol", transaction_id=2)]))
        assert len(store) == 2
        assert store.subjects() == ["bob"]
        assert store.participants() == {"alice", "bob", "carol"}
        assert [feedback.rater for feedback in reports_about(store, "bob")] == ["alice", "carol"]

    def test_participants_include_both_sides(self):
        store = FeedbackStore()
        store.extend(FeedbackBatch.of([make_feedback("bob", 1.0, rater="alice")]))
        assert store.participants() == {"alice", "bob"}

    def test_anonymous_feedback_has_no_rater_index(self):
        store = FeedbackStore()
        store.extend(FeedbackBatch.of([make_feedback("bob", 1.0, rater=None)]))
        assert store.participants() == {"bob"}
        assert [feedback.is_anonymous for feedback in reports_about(store, "bob")] == [True]

    def test_max_per_subject_evicts_oldest(self):
        store = FeedbackStore(max_per_subject=2)
        for index in range(4):
            report = make_feedback("bob", 1.0, rater=f"r{index}", transaction_id=index)
            store.extend(FeedbackBatch.of([report]))
        assert len(reports_about(store, "bob")) == 2
        remaining_raters = {feedback.rater for feedback in reports_about(store, "bob")}
        assert remaining_raters == {"r2", "r3"}
        assert store.participants() == {"bob", "r2", "r3"}

    def test_clear(self):
        store = FeedbackStore()
        store.extend(FeedbackBatch.of([make_feedback("bob", 1.0)]))
        store.clear()
        assert len(store) == 0
        assert store.subjects() == []

    def test_sorted_participants_tracks_additions_and_clear(self):
        store = FeedbackStore()
        store.extend(FeedbackBatch.of([make_feedback("bob", 1.0, rater="alice", transaction_id=1)]))
        assert store.sorted_participants() == ["alice", "bob"]
        store.extend(
            FeedbackBatch.of([make_feedback("dave", 1.0, rater="carol", transaction_id=2)])
        )
        assert store.sorted_participants() == ["alice", "bob", "carol", "dave"]
        store.clear()
        assert store.sorted_participants() == []

    def test_sorted_participants_readmits_rater_returning_after_eviction(self):
        # Regression: R's only report is evicted (history rewrite drops R
        # from the participant set); when R rates again *without* causing
        # another eviction, the cached sorted view must re-admit R.
        store = FeedbackStore(max_per_subject=2)
        store.extend(FeedbackBatch.of([make_feedback("s1", 1.0, rater="R", transaction_id=1)]))
        for index in range(2, 4):
            report = make_feedback("s1", 1.0, rater=f"x{index}", transaction_id=index)
            store.extend(FeedbackBatch.of([report]))
        assert store.sorted_participants() == ["s1", "x2", "x3"]  # R evicted
        store.extend(FeedbackBatch.of([make_feedback("s2", 1.0, rater="R", transaction_id=4)]))
        assert "R" in store.sorted_participants()
        assert store.sorted_participants() == sorted(store.participants())


class TestLocalTrustBuilder:
    def build_store(self) -> FeedbackStore:
        store = FeedbackStore()
        # alice rates bob positively twice and carol negatively once.
        store.extend(FeedbackBatch.of([make_feedback("bob", 1.0, rater="alice", transaction_id=1)]))
        store.extend(FeedbackBatch.of([make_feedback("bob", 1.0, rater="alice", transaction_id=2)]))
        store.extend(
            FeedbackBatch.of([make_feedback("carol", 0.0, rater="alice", transaction_id=3)])
        )
        # carol rates bob negatively.
        store.extend(FeedbackBatch.of([make_feedback("bob", 0.0, rater="carol", transaction_id=4)]))
        return store

    def test_raw_local_trust_clips_at_zero(self):
        builder = LocalTrustBuilder(self.build_store())
        raw = raw_local_trust(builder)
        assert raw["alice"]["bob"] == 2.0
        assert raw["alice"]["carol"] == 0.0
        assert raw["carol"]["bob"] == 0.0

    def test_normalized_rows_sum_to_one_or_are_empty(self):
        builder = LocalTrustBuilder(self.build_store())
        normalized = normalized_local_trust(builder)
        for row in normalized.values():
            if row:
                assert sum(row.values()) == pytest.approx(1.0)

    def test_normalization_restricted_to_known_peers(self):
        builder = LocalTrustBuilder(self.build_store())
        normalized = normalized_local_trust(builder, peers=["alice", "carol"])
        # bob excluded: alice's only surviving target is carol with zero trust.
        assert normalized["alice"] == {}
