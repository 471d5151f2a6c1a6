"""Unit tests for synthetic social-network generation."""

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.socialnet.generators import (
    TOPOLOGIES,
    SocialNetworkSpec,
    generate_social_network,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        SocialNetworkSpec()

    def test_rejects_tiny_population(self):
        with pytest.raises(ConfigurationError):
            SocialNetworkSpec(n_users=1)

    def test_rejects_unknown_topology(self):
        with pytest.raises(ConfigurationError):
            SocialNetworkSpec(topology="smallworldish")

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            SocialNetworkSpec(malicious_fraction=1.2)
        with pytest.raises(ConfigurationError):
            SocialNetworkSpec(rewiring_probability=-0.1)

    def test_rejects_inverted_privacy_range(self):
        with pytest.raises(ConfigurationError):
            SocialNetworkSpec(privacy_concern_range=(0.8, 0.2))

    def test_rejects_zero_communities(self):
        with pytest.raises(ConfigurationError):
            SocialNetworkSpec(n_communities=0)


@pytest.mark.parametrize("topology", TOPOLOGIES)
class TestEveryTopology:
    def test_generates_requested_population(self, topology):
        graph = generate_social_network(SocialNetworkSpec(n_users=40, topology=topology, seed=3))
        assert len(graph) == 40

    def test_graph_is_connected(self, topology):
        graph = generate_social_network(SocialNetworkSpec(n_users=40, topology=topology, seed=3))
        assert graph.is_connected()

    def test_user_parameters_within_bounds(self, topology):
        graph = generate_social_network(SocialNetworkSpec(n_users=30, topology=topology, seed=3))
        for user in graph.users():
            assert 0.0 <= user.honesty <= 1.0
            assert 0.0 <= user.competence <= 1.0
            assert 0.2 <= user.privacy_concern <= 0.9


class TestDeterminismAndMix:
    def test_same_seed_same_graph(self):
        spec = SocialNetworkSpec(n_users=30, seed=11)
        first = generate_social_network(spec)
        second = generate_social_network(spec)
        assert first.user_ids() == second.user_ids()
        assert first.number_of_edges() == second.number_of_edges()
        assert [u.honesty for u in first.users()] == [u.honesty for u in second.users()]

    def test_different_seed_changes_behaviour(self):
        first = generate_social_network(SocialNetworkSpec(n_users=30, seed=1))
        second = generate_social_network(SocialNetworkSpec(n_users=30, seed=2))
        assert [u.honesty for u in first.users()] != [u.honesty for u in second.users()]

    def test_malicious_fraction_respected(self):
        graph = generate_social_network(
            SocialNetworkSpec(n_users=100, malicious_fraction=0.3, seed=4)
        )
        dishonest = sum(1 for user in graph.users() if not user.is_honest)
        assert dishonest == 30

    def test_zero_malicious_fraction(self):
        graph = generate_social_network(
            SocialNetworkSpec(n_users=50, malicious_fraction=0.0, seed=4)
        )
        assert graph.honest_fraction() == 1.0

    def test_sbm_assigns_communities(self):
        graph = generate_social_network(
            SocialNetworkSpec(n_users=40, topology="sbm", n_communities=4, seed=2)
        )
        labels = {user.community for user in graph.users()}
        assert len(labels) >= 2
        assert all(label is not None for label in labels)

    def test_sbm_communities_are_cohesive(self):
        graph = generate_social_network(
            SocialNetworkSpec(
                n_users=60,
                topology="sbm",
                n_communities=3,
                inter_community_probability=0.01,
                seed=2,
            )
        )
        label = {user.user_id: user.community for user in graph.users()}
        ids = graph.user_ids()
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(ids)
        nx_graph.add_edges_from((a, b) for a in ids for b in graph.neighbors(a))
        edges = list(nx_graph.edges())
        intra = sum(1 for a, b in edges if label[a] == label[b])
        assert intra / len(edges) > 0.6
        blocks: dict[int, set[str]] = {}
        for user_id, community in label.items():
            blocks.setdefault(community, set()).add(user_id)
        assert nx.algorithms.community.modularity(nx_graph, list(blocks.values())) > 0.2

    def test_mean_degree_roughly_respected(self):
        graph = generate_social_network(
            SocialNetworkSpec(n_users=100, topology="erdos_renyi", mean_degree=8.0, seed=6)
        )
        assert 4.0 < graph.average_degree() < 12.0
