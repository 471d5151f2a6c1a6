"""Unit tests for the SocialGraph wrapper."""

import pytest

from repro.errors import ConfigurationError, UnknownPeerError
from repro.socialnet.graph import SocialGraph
from repro.socialnet.user import User


def make_user(user_id: str, honesty: float = 0.9) -> User:
    return User(user_id=user_id, honesty=honesty)


@pytest.fixture()
def triangle() -> SocialGraph:
    graph = SocialGraph([make_user("a"), make_user("b"), make_user("c", honesty=0.1)])
    graph.add_relationship("a", "b", strength=0.5)
    graph.add_relationship("b", "c")
    return graph


class TestConstruction:
    def test_add_user_and_len(self, triangle):
        assert len(triangle) == 3
        assert "a" in triangle
        assert set(iter(triangle)) == {"a", "b", "c"}

    def test_relationship_requires_existing_users(self, triangle):
        with pytest.raises(UnknownPeerError):
            triangle.add_relationship("a", "zz")

    def test_self_relationship_rejected(self, triangle):
        with pytest.raises(ConfigurationError):
            triangle.add_relationship("a", "a")

    def test_remove_user(self, triangle):
        triangle.remove_user("c")
        assert "c" not in triangle
        assert triangle.number_of_edges() == 1

    def test_remove_unknown_user_raises(self, triangle):
        with pytest.raises(UnknownPeerError):
            triangle.remove_user("zz")


class TestQueries:
    def test_neighbors(self, triangle):
        assert set(triangle.neighbors("b")) == {"a", "c"}
        assert triangle.neighbors("a") == ["b"]

    def test_are_connected(self, triangle):
        assert triangle.are_connected("a", "b")
        assert not triangle.are_connected("a", "c")

    def test_tie_strength(self, triangle):
        assert triangle.tie_strength("a", "b") == 0.5
        assert triangle.tie_strength("b", "c") == 1.0
        assert triangle.tie_strength("a", "c") == 0.0

    def test_degree(self, triangle):
        assert triangle.degree("b") == 2
        assert triangle.degree("a") == 1

    def test_social_distance(self, triangle):
        assert triangle.social_distance("a", "c") == 2
        assert triangle.social_distance("a", "a") == 0

    def test_social_distance_unreachable(self, triangle):
        triangle.add_user(make_user("island"))
        assert triangle.social_distance("a", "island") is None

    def test_unknown_user_raises(self, triangle):
        with pytest.raises(UnknownPeerError):
            triangle.neighbors("zz")
        with pytest.raises(UnknownPeerError):
            triangle.user("zz")


class TestStatistics:
    def test_average_degree(self, triangle):
        assert triangle.average_degree() == pytest.approx(4 / 3)

    def test_empty_graph_statistics(self):
        graph = SocialGraph()
        assert graph.average_degree() == 0.0
        assert graph.clustering_coefficient() == 0.0
        assert graph.honest_fraction() == 0.0
        assert graph.is_connected()
        assert graph.largest_component() == []

    def test_honest_fraction(self, triangle):
        assert triangle.honest_fraction() == pytest.approx(2 / 3)

    def test_is_connected_and_largest_component(self, triangle):
        assert triangle.is_connected()
        triangle.add_user(make_user("island"))
        assert not triangle.is_connected()
        assert set(triangle.largest_component()) == {"a", "b", "c"}


class TestAdjacencyOrder:
    """``networkx.Graph``'s ordering semantics, which the engine reads through
    :meth:`SocialGraph.neighbors` and :meth:`SocialGraph.user_ids`."""

    def test_readding_a_user_keeps_its_place_and_its_ties(self, triangle):
        triangle.add_user(make_user("a", honesty=0.2))
        assert triangle.user_ids() == ["a", "b", "c"]
        assert triangle.neighbors("a") == ["b"]
        assert triangle.user("a").honesty == 0.2

    def test_readding_a_tie_keeps_its_place_and_takes_the_new_strength(self, triangle):
        triangle.add_relationship("c", "a", strength=0.25)
        triangle.add_relationship("b", "a", strength=0.75)
        assert triangle.neighbors("a") == ["b", "c"]
        assert triangle.neighbors("b") == ["a", "c"]
        assert triangle.tie_strength("b", "a") == 0.75

    def test_removing_a_user_removes_it_from_each_neighbour(self, triangle):
        version = triangle.version
        triangle.remove_user("b")
        assert triangle.neighbors("a") == []
        assert triangle.neighbors("c") == []
        assert triangle.version > version
        triangle.add_user(make_user("b"))
        assert triangle.user_ids() == ["a", "c", "b"]
        assert triangle.neighbors("b") == []

    def test_largest_component_lists_users_in_user_order(self, triangle):
        triangle.add_user(make_user("d"))
        triangle.add_user(make_user("e"))
        triangle.add_relationship("e", "d")
        triangle.add_relationship("c", "a")
        assert triangle.largest_component() == ["a", "b", "c"]
