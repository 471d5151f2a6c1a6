"""Peer behaviour models, including the adversary classes the paper lists.

Section 2.2 enumerates the adversarial context a reputation system faces:
"selfish peers, malicious peers, traitors, whitewashers".  Each class is a
:class:`BehaviorModel` that decides three things for its peer:

* how the peer serves transactions (``serve_quality``),
* how it rates partners (``rate_transaction``),
* how much evidence it discloses to the reputation system
  (``disclosure_probability``).

Collusion is modelled explicitly: colluders inflate each other and deflate
everyone else, which is the classic attack EigenTrust's pre-trusted peers are
meant to dampen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro._util import clamp, require_unit_interval
from repro.socialnet.user import User


@dataclass
class BehaviorModel:
    """Base behaviour: honest service and truthful ratings.

    Subclasses override the three decision hooks.  ``name`` identifies the
    behaviour in metrics and reports.  A rating is what the consumer claims
    about a transaction: 1.0 for a success, 0.0 for a failure.
    """

    name: str = "base"

    def serve_quality(self, user: User, rng: random.Random) -> float:
        """Quality in ``[0, 1]`` of the service this peer provides now."""
        base = user.competence if rng.random() < user.honesty else rng.uniform(0.0, 0.2)
        return clamp(base + rng.gauss(0.0, 0.05))

    def rate_transaction(
        self, user: User, provider_id: str, succeeded: bool, rng: random.Random
    ) -> tuple[float, bool]:
        """Return ``(claimed rating, truthful?)`` for a finished transaction
        with the provider known as ``provider_id``."""
        truthful = rng.random() < user.honesty
        # A truthful rater reports the outcome, a lying one its opposite.
        return (1.0 if succeeded == truthful else 0.0), truthful

    def disclosure_probability(self, user: User, base_sharing: float) -> float:
        """Probability of reporting evidence, given the system sharing level.

        Privacy-concerned users hold back part of their evidence even when
        the system asks for it; this is exactly the "the less a user trusts
        towards the system, the less she discloses information" lever.
        ``base_sharing`` is validated where it is configured
        (:class:`~repro.simulation.engine.SimulationConfig`), not here —
        this runs once per feedback.
        """
        probability = base_sharing * (1.0 - 0.5 * user.privacy_concern)
        return 0.0 if probability < 0.0 else (1.0 if probability > 1.0 else probability)

    def provides_service(self, user: User, rng: random.Random) -> bool:
        """Whether the peer accepts to serve an incoming request at all."""
        return True


@dataclass
class HonestBehavior(BehaviorModel):
    """Serves at its competence level and always reports truthfully."""

    name: str = "honest"

    def rate_transaction(
        self, user: User, provider_id: str, succeeded: bool, rng: random.Random
    ) -> tuple[float, bool]:
        return (1.0 if succeeded else 0.0), True


@dataclass
class MaliciousBehavior(BehaviorModel):
    """Provides bad service and lies in feedback with high probability."""

    name: str = "malicious"
    bad_service_probability: float = 0.9
    lie_probability: float = 0.9

    def serve_quality(self, user: User, rng: random.Random) -> float:
        if rng.random() < self.bad_service_probability:
            return rng.uniform(0.0, 0.15)
        return clamp(user.competence)

    def rate_transaction(
        self, user: User, provider_id: str, succeeded: bool, rng: random.Random
    ) -> tuple[float, bool]:
        if rng.random() < self.lie_probability:
            return (0.0 if succeeded else 1.0), False
        return (1.0 if succeeded else 0.0), True


@dataclass
class SelfishBehavior(BehaviorModel):
    """Free rider: consumes but rarely serves and rarely reports feedback."""

    name: str = "selfish"
    service_refusal_probability: float = 0.8
    reporting_discount: float = 0.2

    def provides_service(self, user: User, rng: random.Random) -> bool:
        return rng.random() >= self.service_refusal_probability

    def disclosure_probability(self, user: User, base_sharing: float) -> float:
        return clamp(super().disclosure_probability(user, base_sharing) * self.reporting_discount)


@dataclass
class TraitorBehavior(BehaviorModel):
    """Behaves honestly until it has built a reputation, then defects.

    ``betrayal_after`` counts the number of transactions served before the
    switch; afterwards the peer behaves like a malicious one.
    """

    name: str = "traitor"
    betrayal_after: int = 20
    served: int = 0

    def serve_quality(self, user: User, rng: random.Random) -> float:
        self.served += 1
        if self.served <= self.betrayal_after:
            return clamp(max(user.competence, 0.8) + rng.gauss(0.0, 0.03))
        return rng.uniform(0.0, 0.1)

    @property
    def has_betrayed(self) -> bool:
        return self.served > self.betrayal_after


@dataclass
class WhitewasherBehavior(MaliciousBehavior):
    """Malicious peer that sheds its identity once its reputation collapses.

    The simulator consults :meth:`should_whitewash`; when true the peer
    rejoins under a fresh identifier, which resets every reputation score
    about it.
    """

    name: str = "whitewasher"
    reputation_threshold: float = 0.25
    whitewash_count: int = 0

    def should_whitewash(self, current_reputation: float) -> bool:
        return current_reputation < self.reputation_threshold

    def note_whitewash(self) -> None:
        self.whitewash_count += 1


@dataclass
class GroomingBehavior(BehaviorModel):
    """Builds reputation on purpose: serves at high quality, rates truthfully.

    This is the *build-up* phase of an on-off traitor: scenario campaigns
    alternate a peer between this behaviour and :class:`MaliciousBehavior`
    to model oscillating betrayal (see
    :func:`repro.scenarios.catalog.traitor_oscillation`).
    """

    name: str = "grooming"
    floor_quality: float = 0.85

    def serve_quality(self, user: User, rng: random.Random) -> float:
        return clamp(max(user.competence, self.floor_quality) + rng.gauss(0.0, 0.03))

    def rate_transaction(
        self, user: User, provider_id: str, succeeded: bool, rng: random.Random
    ) -> tuple[float, bool]:
        return (1.0 if succeeded else 0.0), True


@dataclass
class SlanderBehavior(BehaviorModel):
    """Rating attack: serves honestly but poisons the feedback channel.

    With probability ``slander_probability`` the peer *bad-mouths* every
    provider outside its accomplice set (rates 0 regardless of the actual
    outcome); accomplices get *ballot-stuffed* (rated 1) instead.  Because
    the service itself stays honest, score-based detection must come from
    rating consistency, which makes slander the stealthiest catalog attack.
    """

    name: str = "slanderer"
    accomplices: set[str] = field(default_factory=set)
    slander_probability: float = 1.0

    def rate_transaction(
        self, user: User, provider_id: str, succeeded: bool, rng: random.Random
    ) -> tuple[float, bool]:
        if provider_id in self.accomplices:
            return 1.0, succeeded
        if rng.random() < self.slander_probability:
            return 0.0, not succeeded
        return (1.0 if succeeded else 0.0), True


@dataclass
class CollusiveBehavior(MaliciousBehavior):
    """Member of a collusion ring: inflates accomplices, deflates everyone else."""

    name: str = "colluder"
    ring: set[str] = field(default_factory=set)

    def rate_transaction(
        self, user: User, provider_id: str, succeeded: bool, rng: random.Random
    ) -> tuple[float, bool]:
        if provider_id in self.ring:
            return 1.0, succeeded
        return 0.0, not succeeded


def behavior_for_user(
    user: User,
    *,
    rng: random.Random | None = None,
    traitor_fraction: float = 0.0,
    whitewasher_fraction: float = 0.0,
    selfish_fraction: float = 0.0,
) -> BehaviorModel:
    """Pick a behaviour model for a user based on its honesty and the mix.

    Honest users get :class:`HonestBehavior`.  Dishonest users are split
    between plain malicious, traitor and whitewasher behaviours according to
    the provided fractions (interpreted within the dishonest population).
    A ``selfish_fraction`` of the honest population free-rides.
    """
    rng = rng or random.Random(0)
    require_unit_interval(traitor_fraction, "traitor_fraction")
    require_unit_interval(whitewasher_fraction, "whitewasher_fraction")
    require_unit_interval(selfish_fraction, "selfish_fraction")

    if user.is_honest:
        if rng.random() < selfish_fraction:
            return SelfishBehavior()
        return HonestBehavior()
    draw = rng.random()
    if draw < traitor_fraction:
        return TraitorBehavior()
    if draw < traitor_fraction + whitewasher_fraction:
        return WhitewasherBehavior()
    return MaliciousBehavior()
