"""Transactions between peers and the feedback they generate.

A *transaction* is one service interaction: a consumer asks a provider for a
service and the provider serves it well or badly.  A *feedback* is the
consumer's report about that transaction — possibly dishonest, possibly
withheld (the information-sharing knob of the privacy/reputation tradeoff),
and possibly anonymized.  A :class:`FeedbackBatch` holds disclosed reports
as columns: it is what a mechanism ingests.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from repro._util import require_unit_interval
from repro.errors import ConfigurationError


class TransactionOutcome(enum.Enum):
    """How a transaction actually went (ground truth known to the simulator)."""

    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class Transaction:
    """One completed transaction with its ground-truth outcome and quality."""

    transaction_id: int
    time: int
    consumer: str
    provider: str
    outcome: TransactionOutcome
    quality: float = 0.0

    def __post_init__(self) -> None:
        if self.consumer == self.provider:
            raise ConfigurationError("a peer cannot transact with itself")
        # Fast path for the common case (a float in range): one Transaction
        # is built per simulated interaction, so this sits on the engine's
        # hottest path.  Anything else funnels through the full validator
        # for the usual error messages.
        if type(self.quality) is not float or not 0.0 <= self.quality <= 1.0:
            require_unit_interval(self.quality, "quality")

    @property
    def succeeded(self) -> bool:
        return self.outcome is TransactionOutcome.SUCCESS


@dataclass(frozen=True)
class Feedback:
    """A consumer's report about a transaction.

    ``rating`` is what the consumer *claims* (1.0 positive, 0.0 negative);
    ``truthful`` records whether the claim matches the ground truth, which
    only the simulator knows.  ``rater`` is ``None`` when the feedback was
    submitted anonymously (the [2,4]-style privacy-preserving mode).
    """

    transaction_id: int
    time: int
    subject: str
    rating: float
    rater: str | None
    truthful: bool = True

    def __post_init__(self) -> None:
        # Fast path for in-range floats; see Transaction.__post_init__.
        if type(self.rating) is not float or not 0.0 <= self.rating <= 1.0:
            require_unit_interval(self.rating, "rating")
        if not self.rating:
            # -0.0 passes the range check; a score averaged from it would
            # publish as -0.0.
            object.__setattr__(self, "rating", 0.0)

    @property
    def is_anonymous(self) -> bool:
        return self.rater is None

    @property
    def positive(self) -> bool:
        return self.rating >= 0.5


@dataclass(slots=True)
class FeedbackBatch:
    """Disclosed feedback reports as parallel columns, one row per report.

    Row ``i`` is the report ``Feedback(transaction_ids[i], times[i],
    subjects[i], ratings[i], raters[i], truthful[i])``; ``raters[i]`` is
    ``None`` for an anonymous report.  A batch is what a mechanism ingests
    (:meth:`~repro.reputation.base.ReputationSystem.record_batch`), in row
    order.  Whoever builds one validates its rows, as :class:`Feedback`
    does: ratings in ``[0, 1]`` and never -0.0, times and ids integers.
    """

    transaction_ids: list[int]
    times: list[int]
    subjects: list[str]
    ratings: list[float]
    raters: list[str | None]
    truthful: list[bool]

    @classmethod
    def of(cls, feedbacks: Iterable[Feedback]) -> FeedbackBatch:
        """The reports ``feedbacks``, in order."""
        reports = list(feedbacks)
        return cls(
            transaction_ids=[report.transaction_id for report in reports],
            times=[report.time for report in reports],
            subjects=[report.subject for report in reports],
            ratings=[report.rating for report in reports],
            raters=[report.rater for report in reports],
            truthful=[report.truthful for report in reports],
        )

    def __len__(self) -> int:
        return len(self.subjects)

    def feedback(self, row: int) -> Feedback:
        """The report in ``row``."""
        return Feedback(
            transaction_id=self.transaction_ids[row],
            time=self.times[row],
            subject=self.subjects[row],
            rating=self.ratings[row],
            rater=self.raters[row],
            truthful=bool(self.truthful[row]),
        )

    def take(self, rows: Iterable[int]) -> FeedbackBatch:
        """The given rows, in the given order."""
        rows = list(rows)
        return FeedbackBatch(
            transaction_ids=[self.transaction_ids[row] for row in rows],
            times=[self.times[row] for row in rows],
            subjects=[self.subjects[row] for row in rows],
            ratings=[self.ratings[row] for row in rows],
            raters=[self.raters[row] for row in rows],
            truthful=[self.truthful[row] for row in rows],
        )
