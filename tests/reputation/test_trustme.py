"""Unit tests for the TrustMe-like certificate-gated reputation protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation.trustme import TransactionCertificate, TrustMeReputation
from tests.conftest import make_feedback


class TestTransactionCertificate:
    def test_issue_and_verify(self):
        certificate = TransactionCertificate.issue(1, "alice", "bob", "secret")
        assert certificate.verify("secret")

    def test_wrong_secret_fails_verification(self):
        certificate = TransactionCertificate.issue(1, "alice", "bob", "secret")
        assert not certificate.verify("other-secret")

    def test_token_binds_all_fields(self):
        first = TransactionCertificate.issue(1, "alice", "bob", "secret")
        second = TransactionCertificate.issue(2, "alice", "bob", "secret")
        assert first.token != second.token


class TestTrustMeReputation:
    def test_auto_certified_reports_are_accepted(self):
        system = TrustMeReputation()
        system.record_feedback(make_feedback("bob", 1.0, rater="alice", transaction_id=1))
        assert system.evidence_count == 1
        assert system.rejected_reports == 0
        assert system.score("bob") == 1.0

    def test_uncertified_reports_rejected_when_auto_certify_disabled(self):
        system = TrustMeReputation(auto_certify=False)
        system.record_feedback(make_feedback("bob", 1.0, rater="alice", transaction_id=1))
        assert system.evidence_count == 0
        assert system.rejected_reports == 1

    def test_certified_report_accepted_when_auto_certify_disabled(self):
        system = TrustMeReputation(auto_certify=False)
        system.issue_certificate(1, "alice", "bob")
        system.record_feedback(make_feedback("bob", 1.0, rater="alice", transaction_id=1))
        assert system.evidence_count == 1

    def test_forged_rater_rejected(self):
        system = TrustMeReputation(auto_certify=False)
        system.issue_certificate(1, "alice", "bob")
        system.record_feedback(make_feedback("bob", 0.0, rater="eve", transaction_id=1))
        assert system.evidence_count == 0
        assert system.rejected_reports == 1

    def test_forged_subject_rejected(self):
        system = TrustMeReputation(auto_certify=False)
        system.issue_certificate(1, "alice", "bob")
        system.record_feedback(make_feedback("carol", 0.0, rater="alice", transaction_id=1))
        assert system.rejected_reports == 1

    def test_without_certificate_requirement_everything_is_accepted(self):
        system = TrustMeReputation(require_certificates=False)
        system.record_feedback(make_feedback("bob", 1.0, rater="eve", transaction_id=99))
        assert system.evidence_count == 1

    def test_scores_average_certified_reports(self):
        system = TrustMeReputation()
        ratings = [1.0, 1.0, 0.0, 1.0]
        for index, rating in enumerate(ratings):
            system.record_feedback(
                make_feedback("bob", rating, rater="alice", transaction_id=index)
            )
        assert system.score("bob") == pytest.approx(0.75)

    def test_reset_clears_certificates_and_storage(self):
        system = TrustMeReputation()
        system.record_feedback(make_feedback("bob", 1.0, transaction_id=1))
        system.reset()
        assert system.evidence_count == 0
        assert system.rejected_reports == 0
        assert system.score("bob") == system.default_score

    def test_anonymous_feedback_accepted_with_auto_certify(self):
        system = TrustMeReputation()
        system.record_feedback(make_feedback("bob", 1.0, rater=None, transaction_id=5))
        assert system.evidence_count == 1


class TestEvidenceCap:
    @given(
        reports=st.lists(
            st.tuples(st.sampled_from(["bob", "carol", "dave"]), st.sampled_from([0.0, 0.5, 1.0])),
            max_size=40,
        ),
        cap=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_capped_score_is_the_mean_of_the_held_reports(self, reports, cap):
        system = TrustMeReputation(max_evidence_per_subject=cap)
        for index, (subject, rating) in enumerate(reports):
            system.record_feedback(
                make_feedback(subject, rating, rater=f"r{index}", transaction_id=index)
            )
        columns = system.store.columns()
        held: dict[str, list[float]] = {}
        for row in range(len(columns)):
            report = columns.feedback(row)
            held.setdefault(report.subject, []).append(report.rating)
        assert system.refresh() == {
            subject: round(sum(ratings) / len(ratings), 9) for subject, ratings in held.items()
        }
