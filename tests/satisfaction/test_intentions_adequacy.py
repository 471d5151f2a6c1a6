"""Unit tests for intentions and adequacy measures."""

import pytest

from repro.errors import ConfigurationError
from repro.satisfaction.adequacy import (
    consumer_adequacy,
    interaction_adequacy,
    provider_adequacy,
)
from repro.satisfaction.intentions import ConsumerIntention, ProviderIntention


class TestConsumerIntention:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConsumerIntention("c", preferences={"p": 1.5})
        with pytest.raises(ConfigurationError):
            ConsumerIntention("c", default_preference=-0.1)

    def test_default_preference_for_unknown_provider(self):
        intention = ConsumerIntention("c", default_preference=0.4)
        assert intention.preference("unknown") == 0.4

    def test_set_and_get_preference(self):
        intention = ConsumerIntention("c")
        intention.set_preference("p", 0.9)
        assert intention.preference("p") == 0.9

    def test_update_from_experience_moves_towards_quality(self):
        intention = ConsumerIntention("c", preferences={"p": 0.5})
        intention.update_from_experience("p", 1.0, alpha=0.5)
        assert intention.preference("p") == 0.75
        intention.update_from_experience("p", 0.0, alpha=1.0)
        assert intention.preference("p") == 0.0

    def test_ranked_providers(self):
        intention = ConsumerIntention("c", preferences={"a": 0.2, "b": 0.9, "c": 0.9})
        assert intention.ranked_providers() == ["b", "c", "a"]

    def test_as_distribution_sums_to_one(self):
        intention = ConsumerIntention("c", preferences={"a": 0.2, "b": 0.6})
        distribution = intention.as_distribution()
        assert sum(distribution.values()) == pytest.approx(1.0)


class TestProviderIntention:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProviderIntention("p", capacity=-1)
        with pytest.raises(ConfigurationError):
            ProviderIntention("p", topic_interest={"t": 2.0})

    def test_intention_for_topic_only(self):
        intention = ProviderIntention("p", topic_interest={"music": 0.9}, default_interest=0.2)
        assert intention.intention_for("music") == 0.9
        assert intention.intention_for("unknown") == 0.2

    def test_intention_blends_consumer_affinity(self):
        intention = ProviderIntention(
            "p", topic_interest={"music": 1.0}, consumer_affinity={"alice": 0.0}
        )
        blended = intention.intention_for("music", "alice")
        assert blended == pytest.approx(0.6)

    def test_setters(self):
        intention = ProviderIntention("p")
        intention.set_topic_interest("music", 0.8)
        intention.set_consumer_affinity("alice", 0.3)
        assert intention.topic_interest["music"] == 0.8
        assert intention.consumer_affinity["alice"] == 0.3


class TestAdequacy:
    def test_consumer_adequacy_is_preference(self):
        intention = ConsumerIntention("c", preferences={"p": 0.8})
        assert consumer_adequacy(intention, "p") == 0.8

    def test_provider_adequacy_is_intention(self):
        intention = ProviderIntention("p", topic_interest={"music": 0.7})
        assert provider_adequacy(intention, "music") == 0.7

    def test_interaction_adequacy_blends_quality_and_preference(self):
        assert interaction_adequacy(0.0, 1.0, quality_weight=1.0) == 1.0
        assert interaction_adequacy(1.0, 0.0, quality_weight=1.0) == 0.0
        assert interaction_adequacy(0.5, 0.5) == pytest.approx(0.5)
        blended = interaction_adequacy(1.0, 0.0, quality_weight=0.6)
        assert blended == pytest.approx(0.4)

    def test_interaction_adequacy_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            interaction_adequacy(1.5, 0.5)
        with pytest.raises(ConfigurationError):
            interaction_adequacy(0.5, 0.5, quality_weight=2.0)
