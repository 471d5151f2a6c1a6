"""Unit tests for transactions and feedback records."""

import pytest

from repro.errors import ConfigurationError
from repro.simulation.transaction import Feedback, Transaction, TransactionOutcome


class TestTransaction:
    def test_succeeded_property(self):
        transaction = Transaction(
            transaction_id=1,
            time=0,
            consumer="a",
            provider="b",
            outcome=TransactionOutcome.SUCCESS,
            quality=0.8,
        )
        assert transaction.succeeded

    def test_rejects_self_transaction(self):
        with pytest.raises(ConfigurationError):
            Transaction(
                transaction_id=1,
                time=0,
                consumer="a",
                provider="a",
                outcome=TransactionOutcome.SUCCESS,
            )

    def test_rejects_invalid_quality(self):
        with pytest.raises(ConfigurationError):
            Transaction(
                transaction_id=1,
                time=0,
                consumer="a",
                provider="b",
                outcome=TransactionOutcome.SUCCESS,
                quality=1.5,
            )


class TestFeedback:
    def test_positive_threshold(self):
        positive = Feedback(transaction_id=1, time=0, subject="b", rating=0.5, rater="a")
        negative = Feedback(transaction_id=2, time=0, subject="b", rating=0.49, rater="a")
        assert positive.positive
        assert not negative.positive

    def test_anonymous_when_rater_missing(self):
        feedback = Feedback(transaction_id=1, time=0, subject="b", rating=1.0, rater=None)
        assert feedback.is_anonymous

    def test_rejects_invalid_rating(self):
        with pytest.raises(ConfigurationError):
            Feedback(transaction_id=1, time=0, subject="b", rating=-0.1, rater="a")

    def test_is_immutable(self):
        feedback = Feedback(transaction_id=1, time=0, subject="b", rating=1.0, rater="a")
        with pytest.raises(AttributeError):
            feedback.rating = 0.0
