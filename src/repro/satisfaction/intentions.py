"""Participant intentions: what each participant wants from the system.

"In order to define her intentions and strategy, a participant needs
information about the system itself and its participants" (Section 2.1).  Two
kinds of intentions are modelled, matching the query-allocation setting the
paper builds on:

* a **consumer intention** ranks providers: who the consumer would prefer to
  be served by (derived from observed quality, social closeness, or set
  explicitly);
* a **provider intention** expresses how much the provider wants to treat
  queries of a given type or from a given consumer (capacity and interest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import clamp, normalize_distribution, require_unit_interval
from repro.errors import ConfigurationError


@dataclass
class ConsumerIntention:
    """A consumer's preference over providers, each in ``[0, 1]``."""

    consumer: str
    preferences: dict[str, float] = field(default_factory=dict)
    #: Preference assumed for providers the consumer knows nothing about.
    default_preference: float = 0.5

    def __post_init__(self) -> None:
        require_unit_interval(self.default_preference, "default_preference")
        for provider, value in self.preferences.items():
            require_unit_interval(value, f"preference for {provider}")

    def preference(self, provider: str) -> float:
        return self.preferences.get(provider, self.default_preference)

    def set_preference(self, provider: str, value: float) -> None:
        self.preferences[provider] = require_unit_interval(value, "preference")

    def update_from_experience(self, provider: str, quality: float, *, alpha: float = 0.3) -> None:
        """Move the preference towards the observed quality (EWMA)."""
        require_unit_interval(quality, "quality")
        require_unit_interval(alpha, "alpha")
        current = self.preference(provider)
        self.preferences[provider] = clamp((1.0 - alpha) * current + alpha * quality)

    def ranked_providers(self) -> list:
        """Providers with explicit preferences, best first."""
        return sorted(self.preferences, key=lambda p: (-self.preferences[p], p))

    def as_distribution(self) -> dict[str, float]:
        """Preferences normalized into a probability distribution."""
        return normalize_distribution(dict(self.preferences))


@dataclass
class ProviderIntention:
    """A provider's willingness to treat work, per query type and consumer."""

    provider: str
    #: Interest in each query type (topic), in ``[0, 1]``.
    topic_interest: dict[str, float] = field(default_factory=dict)
    #: Willingness to serve specific consumers, in ``[0, 1]``.
    consumer_affinity: dict[str, float] = field(default_factory=dict)
    #: Baseline willingness for unknown topics/consumers.
    default_interest: float = 0.5
    #: Maximum number of queries the provider intends to treat per round.
    capacity: int = 5

    def __post_init__(self) -> None:
        require_unit_interval(self.default_interest, "default_interest")
        if self.capacity < 0:
            raise ConfigurationError("capacity must be non-negative")
        for topic, value in self.topic_interest.items():
            require_unit_interval(value, f"interest in {topic}")
        for consumer, value in self.consumer_affinity.items():
            require_unit_interval(value, f"affinity for {consumer}")

    def intention_for(self, topic: str, consumer: str | None = None) -> float:
        """How much the provider wants to treat this query, in ``[0, 1]``."""
        interest = self.topic_interest.get(topic, self.default_interest)
        if consumer is None:
            return interest
        affinity = self.consumer_affinity.get(consumer, self.default_interest)
        return clamp(0.6 * interest + 0.4 * affinity)

    def set_topic_interest(self, topic: str, value: float) -> None:
        self.topic_interest[topic] = require_unit_interval(value, "interest")

    def set_consumer_affinity(self, consumer: str, value: float) -> None:
        self.consumer_affinity[consumer] = require_unit_interval(value, "affinity")
