"""Pseudonyms and data generalization.

The paper cites decentralized social networks that rely on "anonymization of
traffic, pseudonyms, etc. to offer privacy protection to users".  This module
provides the corresponding building blocks:

* :class:`PseudonymManager` — stable or rotating pseudonyms decoupling a
  user's network identity from its real identifier;
* :func:`generalize_age` and :func:`k_anonymous_groups` — value
  generalization so that released attributes cannot single a user out;
* :func:`anonymize_feedback` — strip rater identities from a batch of
  feedback (the non-cryptographic core of anonymous reputation reporting).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.simulation.transaction import Feedback


class PseudonymManager:
    """Deterministic pseudonyms with optional epoch-based rotation.

    Pseudonyms are derived from a secret salt, the real identifier and the
    current epoch; rotating the epoch unlinks future activity from past
    activity while keeping the mapping reproducible for the experiment
    harness (which must join pseudonymous activity back to ground truth).
    """

    def __init__(self, salt: str = "repro-pseudonyms", *, epoch: int = 0) -> None:
        self._salt = salt
        self._epoch = int(epoch)
        self._forward: dict[str, str] = {}
        self._reverse: dict[str, str] = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    def pseudonym(self, real_id: str) -> str:
        if real_id in self._forward:
            return self._forward[real_id]
        digest = hashlib.sha256(f"{self._salt}|{self._epoch}|{real_id}".encode("utf8")).hexdigest()
        pseudonym = f"p-{digest[:16]}"
        self._forward[real_id] = pseudonym
        self._reverse[pseudonym] = real_id
        return pseudonym

    def resolve(self, pseudonym: str) -> str:
        """Reverse lookup; only the manager (the experiment harness) can do this."""
        try:
            return self._reverse[pseudonym]
        except KeyError:
            raise ConfigurationError(f"unknown pseudonym {pseudonym!r}") from None

    def rotate(self) -> None:
        """Start a new epoch: future pseudonyms are unlinkable to past ones."""
        self._epoch += 1
        self._forward.clear()
        self._reverse.clear()

def generalize_age(age: int, bucket_size: int = 10) -> str:
    """Generalize an exact age into a range label, e.g. ``"30-39"``."""
    if bucket_size < 1:
        raise ConfigurationError("bucket_size must be at least 1")
    if age < 0:
        raise ConfigurationError("age must be non-negative")
    low = (age // bucket_size) * bucket_size
    return f"{low}-{low + bucket_size - 1}"


def k_anonymous_groups(values: Sequence[str], k: int) -> dict[str, list[int]]:
    """Group record indices by value and report which groups satisfy k-anonymity.

    Returns ``{value: [indices]}`` restricted to groups of size at least
    ``k``; smaller groups would re-identify their members and must be
    suppressed or further generalized by the caller.
    """
    if k < 1:
        raise ConfigurationError("k must be at least 1")
    groups: dict[str, list[int]] = defaultdict(list)
    for index, value in enumerate(values):
        groups[value].append(index)
    return {value: indices for value, indices in groups.items() if len(indices) >= k}


def anonymize_feedback(feedbacks: Iterable[Feedback]) -> list[Feedback]:
    """Strip rater identities from a batch of feedback reports."""
    anonymized = []
    for feedback in feedbacks:
        anonymized.append(
            Feedback(
                transaction_id=feedback.transaction_id,
                time=feedback.time,
                subject=feedback.subject,
                rating=feedback.rating,
                rater=None,
                truthful=feedback.truthful,
            )
        )
    return anonymized
