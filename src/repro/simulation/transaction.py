"""Transactions between peers and the feedback they generate.

A *transaction* is one service interaction: a consumer asks a provider for a
service and the provider serves it well or badly.  A *feedback* is the
consumer's report about that transaction — possibly dishonest, possibly
withheld (the information-sharing knob of the privacy/reputation tradeoff),
and possibly anonymized.
"""

from __future__ import annotations

import enum
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

    @property
    def is_anonymous(self) -> bool:
        return self.rater is None

    @property
    def positive(self) -> bool:
        return self.rating >= 0.5
