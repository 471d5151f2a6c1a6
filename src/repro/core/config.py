"""System settings: the "settable aspects" of Figure 2.

The paper's stated objective is "to find a method to obtain the right
settings in order to maximize the user's trust towards the system".
:class:`SystemSettings` gathers those settings:

* ``sharing_level`` — the quantity of shared information (the knob that
  simultaneously raises reputation power and lowers privacy guarantees);
* ``reputation_mechanism`` — which mechanism is deployed (each has its own
  information requirement and power);
* ``anonymous_feedback`` — whether reports go through the anonymizing channel;
* ``policy_strictness`` — the default restrictiveness of users' privacy
  policies;
* facet weights — how the composite metric weighs privacy, reputation and
  satisfaction;
* Area-A thresholds — the minimum facet levels that count as "a good
  tradeoff" (the intersection area of Figure 2, left).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._util import normalize_weights, require_unit_interval
from repro.errors import ConfigurationError

#: Mechanisms the settings accept; mirrors repro.reputation.registry.REPUTATION_FACTORIES
#: without importing it (keeps core free of a dependency on the substrate).
KNOWN_MECHANISMS = ("average", "beta", "eigentrust", "powertrust", "trustme", "none")


@dataclass(frozen=True)
class SystemSettings:
    """A complete assignment of the system's settable aspects."""

    sharing_level: float = 0.8
    reputation_mechanism: str = "eigentrust"
    anonymous_feedback: bool = False
    policy_strictness: float = 0.5
    privacy_weight: float = 1.0
    reputation_weight: float = 1.0
    satisfaction_weight: float = 1.0
    area_a_threshold: float = 0.5

    def __post_init__(self) -> None:
        require_unit_interval(self.sharing_level, "sharing_level")
        require_unit_interval(self.policy_strictness, "policy_strictness")
        require_unit_interval(self.area_a_threshold, "area_a_threshold")
        if self.reputation_mechanism not in KNOWN_MECHANISMS:
            raise ConfigurationError(
                f"unknown reputation mechanism {self.reputation_mechanism!r}; "
                f"expected one of {KNOWN_MECHANISMS}"
            )
        for name, weight in self.weights().items():
            if weight < 0:
                raise ConfigurationError(f"{name} weight must be non-negative")
        if (
            self.privacy_weight == 0
            and self.reputation_weight == 0
            and self.satisfaction_weight == 0
        ):
            raise ConfigurationError("at least one facet weight must be positive")

    def weights(self) -> dict[str, float]:
        """Raw facet weights keyed by facet name."""
        return {
            "privacy": self.privacy_weight,
            "reputation": self.reputation_weight,
            "satisfaction": self.satisfaction_weight,
        }

    def normalized_weights(self) -> dict[str, float]:
        """Facet weights normalized to sum to one (privacy, reputation, satisfaction)."""
        names = ["privacy", "reputation", "satisfaction"]
        raw = [self.weights()[name] for name in names]
        normalized = normalize_weights(raw)
        return dict(zip(names, normalized, strict=True))

    def with_sharing_level(self, sharing_level: float) -> SystemSettings:
        """A copy of the settings with a different information-sharing level."""
        return replace(self, sharing_level=sharing_level)

    def with_mechanism(self, mechanism: str) -> SystemSettings:
        return replace(self, reputation_mechanism=mechanism)

    def describe(self) -> dict[str, object]:
        """A plain dictionary view used by reports and benchmarks."""
        return {
            "sharing_level": self.sharing_level,
            "reputation_mechanism": self.reputation_mechanism,
            "anonymous_feedback": self.anonymous_feedback,
            "policy_strictness": self.policy_strictness,
            "weights": self.normalized_weights(),
            "area_a_threshold": self.area_a_threshold,
        }
