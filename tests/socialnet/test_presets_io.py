"""Unit tests for network presets."""

import pytest

from repro.errors import ConfigurationError
from repro.socialnet.generators import generate_social_network
from repro.socialnet.presets import NETWORK_PRESETS, preset_spec


class TestPresets:
    def test_every_preset_generates_a_connected_network(self):
        for name in NETWORK_PRESETS:
            graph = generate_social_network(preset_spec(name, seed=1))
            assert len(graph) == NETWORK_PRESETS[name].n_users
            assert graph.is_connected()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            preset_spec("metaverse")

    def test_preset_spec_reseeds_without_mutating_the_registry(self):
        spec = preset_spec("village", seed=99)
        assert spec.seed == 99
        assert NETWORK_PRESETS["village"].seed == 0

    def test_file_sharing_preset_is_more_adversarial_than_friendship(self):
        file_sharing = generate_social_network(preset_spec("file-sharing", seed=2))
        friendship = generate_social_network(preset_spec("friendship", seed=2))
        assert file_sharing.honest_fraction() < friendship.honest_fraction()

    def test_friendship_preset_has_communities(self):
        graph = generate_social_network(preset_spec("friendship", seed=3))
        assert any(user.community is not None for user in graph.users())
