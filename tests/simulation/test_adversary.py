"""Unit tests for behaviour models (honest, malicious, selfish, traitor...)."""

import random

import pytest

from repro.simulation.adversary import (
    BehaviorModel,
    CollusiveBehavior,
    HonestBehavior,
    MaliciousBehavior,
    SelfishBehavior,
    TraitorBehavior,
    WhitewasherBehavior,
    behavior_for_user,
)
from repro.socialnet.user import User


@pytest.fixture()
def honest_user():
    return User(user_id="h", honesty=1.0, competence=0.9, privacy_concern=0.4)


@pytest.fixture()
def malicious_user():
    return User(user_id="m", honesty=0.05, competence=0.6, privacy_concern=0.1)


class TestHonestBehavior:
    def test_serves_near_competence(self, honest_user, rng):
        qualities = [HonestBehavior().serve_quality(honest_user, rng) for _ in range(50)]
        assert sum(qualities) / len(qualities) > 0.7

    def test_always_truthful(self, honest_user, rng):
        behavior = HonestBehavior()
        for succeeded in (True, False):
            rating, truthful = behavior.rate_transaction(honest_user, "p", succeeded, rng)
            assert truthful
            assert rating == (1.0 if succeeded else 0.0)


class TestMaliciousBehavior:
    def test_serves_badly(self, malicious_user, rng):
        qualities = [MaliciousBehavior().serve_quality(malicious_user, rng) for _ in range(50)]
        assert sum(qualities) / len(qualities) < 0.3

    def test_mostly_lies(self, malicious_user, rng):
        behavior = MaliciousBehavior(lie_probability=1.0)
        rating, truthful = behavior.rate_transaction(malicious_user, "p", True, rng)
        assert rating == 0.0
        assert not truthful


class TestSelfishBehavior:
    def test_often_refuses_service(self, honest_user, rng):
        behavior = SelfishBehavior(service_refusal_probability=1.0)
        assert not behavior.provides_service(honest_user, rng)

    def test_discloses_less_than_base(self, honest_user):
        selfish = SelfishBehavior()
        base = BehaviorModel()
        assert selfish.disclosure_probability(honest_user, 1.0) < base.disclosure_probability(
            honest_user, 1.0
        )


class TestTraitorBehavior:
    def test_good_then_bad(self, malicious_user, rng):
        behavior = TraitorBehavior(betrayal_after=5)
        early = [behavior.serve_quality(malicious_user, rng) for _ in range(5)]
        late = [behavior.serve_quality(malicious_user, rng) for _ in range(5)]
        assert min(early) > 0.5
        assert max(late) < 0.3
        assert behavior.has_betrayed


class TestWhitewasherBehavior:
    def test_whitewashes_below_threshold(self):
        behavior = WhitewasherBehavior(reputation_threshold=0.25)
        assert behavior.should_whitewash(0.1)
        assert not behavior.should_whitewash(0.5)

    def test_counts_whitewashes(self):
        behavior = WhitewasherBehavior()
        behavior.note_whitewash()
        behavior.note_whitewash()
        assert behavior.whitewash_count == 2


class TestCollusiveBehavior:
    def test_inflates_ring_members(self, malicious_user, rng):
        behavior = CollusiveBehavior(ring={"ally"})
        rating, _ = behavior.rate_transaction(malicious_user, "ally", False, rng)
        assert rating == 1.0

    def test_deflates_outsiders(self, malicious_user, rng):
        behavior = CollusiveBehavior(ring={"ally"})
        rating, _ = behavior.rate_transaction(malicious_user, "victim", True, rng)
        assert rating == 0.0


class TestDisclosure:
    def test_respects_sharing_level(self, honest_user):
        behavior = BehaviorModel()
        assert behavior.disclosure_probability(honest_user, 0.0) == 0.0
        assert behavior.disclosure_probability(honest_user, 1.0) <= 1.0

    def test_privacy_concern_reduces_disclosure(self):
        careless = User(user_id="a", privacy_concern=0.0)
        careful = User(user_id="b", privacy_concern=1.0)
        behavior = BehaviorModel()
        assert behavior.disclosure_probability(careful, 0.8) < behavior.disclosure_probability(
            careless, 0.8
        )


class TestBehaviorForUser:
    def test_honest_user_gets_honest_behavior(self, honest_user):
        behavior = behavior_for_user(honest_user, rng=random.Random(0))
        assert isinstance(behavior, HonestBehavior)

    def test_dishonest_user_gets_malicious_family(self, malicious_user):
        behavior = behavior_for_user(malicious_user, rng=random.Random(0))
        assert isinstance(behavior, MaliciousBehavior)

    def test_traitor_fraction_one_gives_traitors(self, malicious_user):
        behavior = behavior_for_user(malicious_user, rng=random.Random(0), traitor_fraction=1.0)
        assert isinstance(behavior, TraitorBehavior)

    def test_whitewasher_fraction(self, malicious_user):
        behavior = behavior_for_user(
            malicious_user,
            rng=random.Random(0),
            traitor_fraction=0.0,
            whitewasher_fraction=1.0,
        )
        assert isinstance(behavior, WhitewasherBehavior)

    def test_selfish_fraction_applies_to_honest_users(self, honest_user):
        behavior = behavior_for_user(honest_user, rng=random.Random(0), selfish_fraction=1.0)
        assert isinstance(behavior, SelfishBehavior)
