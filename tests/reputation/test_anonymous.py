"""Unit tests for the anonymizing feedback wrapper."""

import pytest

from repro.errors import ConfigurationError
from repro.reputation.anonymous import AnonymousFeedbackReputation
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from tests.conftest import make_feedback
from tests.oracles.reputation import reports_about


def test_strips_rater_identity():
    wrapper = AnonymousFeedbackReputation(SimpleAverageReputation(), seed=1)
    wrapper.record_feedback(make_feedback("bob", 1.0, rater="alice", transaction_id=1))
    stored = reports_about(wrapper.inner.store, "bob")[0]
    assert stored.rater is None
    assert wrapper.anonymized_reports == 1


def test_identity_can_be_kept():
    wrapper = AnonymousFeedbackReputation(SimpleAverageReputation(), strip_identity=False, seed=1)
    wrapper.record_feedback(make_feedback("bob", 1.0, rater="alice", transaction_id=1))
    assert reports_about(wrapper.inner.store, "bob")[0].rater == "alice"
    assert wrapper.anonymized_reports == 0


def test_epsilon_one_preserves_ratings():
    wrapper = AnonymousFeedbackReputation(BetaReputation(), epsilon=1.0, seed=2)
    for index in range(20):
        wrapper.record_feedback(make_feedback("bob", 1.0, transaction_id=index))
    assert wrapper.perturbed_reports == 0
    assert wrapper.score("bob") > 0.9


def test_randomized_response_perturbs_some_reports():
    wrapper = AnonymousFeedbackReputation(BetaReputation(), epsilon=0.2, seed=3)
    for index in range(100):
        wrapper.record_feedback(make_feedback("bob", 1.0, transaction_id=index))
    assert wrapper.perturbed_reports > 0
    # The score moves towards 0.5 compared with the unperturbed channel.
    assert 0.4 < wrapper.score("bob") < 0.95


def test_information_requirement_lower_than_inner():
    inner = EigenTrust()
    wrapper = AnonymousFeedbackReputation(inner)
    assert wrapper.information_requirement < inner.information_requirement


def test_scores_delegate_to_inner():
    wrapper = AnonymousFeedbackReputation(SimpleAverageReputation(), seed=4)
    wrapper.record_feedback(make_feedback("bob", 1.0, transaction_id=1))
    assert wrapper.scores() == wrapper.inner.scores()


def test_reports_are_held_once_and_computed_once_per_refresh(monkeypatch):
    inner = EigenTrust()
    wrapper = AnonymousFeedbackReputation(inner, strip_identity=False, seed=6)
    for index in range(12):
        wrapper.record_feedback(
            make_feedback(f"p{index % 3}", 1.0, rater=f"p{(index + 1) % 3}", transaction_id=index)
        )
    assert wrapper.store is inner.store
    assert wrapper.evidence_count == 12
    computes = []
    compute = inner.compute_scores
    monkeypatch.setattr(inner, "compute_scores", lambda: computes.append(1) or compute())
    assert wrapper.refresh() == inner.scores()
    assert len(computes) == 1


def test_reset_clears_both_layers():
    wrapper = AnonymousFeedbackReputation(SimpleAverageReputation(), seed=5)
    wrapper.record_feedback(make_feedback("bob", 1.0, transaction_id=1))
    wrapper.reset()
    assert wrapper.evidence_count == 0
    assert wrapper.inner.evidence_count == 0
    assert wrapper.anonymized_reports == 0


def test_invalid_epsilon_rejected():
    with pytest.raises(ConfigurationError):
        AnonymousFeedbackReputation(SimpleAverageReputation(), epsilon=1.2)
