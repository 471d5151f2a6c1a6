"""The :class:`SocialGraph`: users plus their relationship topology.

A thin, explicit wrapper around :class:`networkx.Graph` that stores
:class:`~repro.socialnet.user.User` objects on nodes and exposes exactly the
operations the rest of the library needs (neighbour queries, shortest social
distance, acquaintance checks, degree statistics).  Keeping the wrapper small
makes the simulation and reputation code independent of networkx details.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import networkx as nx

from repro.errors import ConfigurationError, UnknownPeerError
from repro.socialnet.user import User


class SocialGraph:
    """An undirected social graph whose nodes are user identifiers.

    Neighbour and user listings are cached: the simulation inner loops call
    :meth:`neighbors`, :meth:`users` and :meth:`user_ids` once per peer per
    round, and rebuilding fresh lists from networkx every time dominated the
    profile.  Mutations (:meth:`add_user`, :meth:`add_relationship`,
    :meth:`remove_user`) invalidate the caches.  Treat returned lists as
    read-only views.
    """

    def __init__(self, users: Iterable[User] | None = None) -> None:
        self._graph = nx.Graph()
        self._users: dict[str, User] = {}
        self._neighbors_cache: dict[str, list[str]] = {}
        self._users_cache: list[User] | None = None
        self._user_ids_cache: list[str] | None = None
        self._version = 0
        for user in users or []:
            self.add_user(user)

    # -- construction -----------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumps on every structural change).

        The network cache
        (:func:`~repro.socialnet.generators.cached_social_network`) keys its
        validity on this: a cached graph whose version moved since it was
        stored has been mutated by some consumer and is silently regenerated
        instead of reused.
        """
        return self._version

    def _invalidate_caches(self) -> None:
        self._neighbors_cache.clear()
        self._users_cache = None
        self._user_ids_cache = None
        self._version += 1

    def add_user(self, user: User) -> None:
        """Add a user node; replacing an existing user keeps its edges."""
        self._users[user.user_id] = user
        self._graph.add_node(user.user_id)
        self._invalidate_caches()

    def add_relationship(self, a: str, b: str, *, strength: float = 1.0) -> None:
        """Connect two existing users with a tie of the given strength."""
        self._require(a)
        self._require(b)
        if a == b:
            raise ConfigurationError("self relationships are not allowed")
        self._graph.add_edge(a, b, strength=float(strength))
        self._invalidate_caches()

    def remove_user(self, user_id: str) -> None:
        """Remove a user and all its relationships (e.g. permanent churn)."""
        self._require(user_id)
        self._graph.remove_node(user_id)
        del self._users[user_id]
        self._invalidate_caches()

    # -- queries ----------------------------------------------------------

    def _require(self, user_id: str) -> None:
        if user_id not in self._users:
            raise UnknownPeerError(user_id)

    def user(self, user_id: str) -> User:
        self._require(user_id)
        return self._users[user_id]

    def users(self) -> list[User]:
        """All users (cached view; do not mutate the returned list)."""
        if self._users_cache is None:
            self._users_cache = list(self._users.values())
        return self._users_cache

    def user_ids(self) -> list[str]:
        """All user identifiers (cached view; do not mutate)."""
        if self._user_ids_cache is None:
            self._user_ids_cache = list(self._users.keys())
        return self._user_ids_cache

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._users

    def __len__(self) -> int:
        return len(self._users)

    def __iter__(self) -> Iterator[str]:
        return iter(self._users)

    def neighbors(self, user_id: str) -> list[str]:
        """Direct neighbours of a user (cached view; do not mutate)."""
        self._require(user_id)
        cached = self._neighbors_cache.get(user_id)
        if cached is None:
            cached = list(self._graph.neighbors(user_id))
            self._neighbors_cache[user_id] = cached
        return cached

    def are_connected(self, a: str, b: str) -> bool:
        self._require(a)
        self._require(b)
        return self._graph.has_edge(a, b)

    def tie_strength(self, a: str, b: str) -> float:
        """Strength of the tie between two users, 0.0 when not connected."""
        self._require(a)
        self._require(b)
        data = self._graph.get_edge_data(a, b)
        if data is None:
            return 0.0
        return float(data.get("strength", 1.0))

    def degree(self, user_id: str) -> int:
        self._require(user_id)
        return int(self._graph.degree[user_id])

    def number_of_edges(self) -> int:
        return self._graph.number_of_edges()

    def social_distance(self, a: str, b: str) -> int | None:
        """Shortest-path hop count between two users, ``None`` if unreachable."""
        self._require(a)
        self._require(b)
        try:
            return int(nx.shortest_path_length(self._graph, a, b))
        except nx.NetworkXNoPath:
            return None

    def is_connected(self) -> bool:
        """Whether the whole graph forms a single connected component."""
        if len(self) == 0:
            return True
        return nx.is_connected(self._graph)

    def largest_component(self) -> list[str]:
        """Identifiers of the largest connected component."""
        if len(self) == 0:
            return []
        return list(max(nx.connected_components(self._graph), key=len))

    def average_degree(self) -> float:
        if len(self) == 0:
            return 0.0
        return 2.0 * self.number_of_edges() / len(self)

    def clustering_coefficient(self) -> float:
        """Average clustering coefficient of the graph (0.0 when empty)."""
        if len(self) == 0:
            return 0.0
        return float(nx.average_clustering(self._graph))

    def honest_fraction(self) -> float:
        """Fraction of users that are predominantly honest."""
        if not self._users:
            return 0.0
        honest = sum(1 for user in self._users.values() if user.is_honest)
        return honest / len(self._users)

    def to_networkx(self) -> nx.Graph:
        """Return a copy of the underlying networkx graph (nodes = user ids)."""
        return self._graph.copy()

    def subgraph(self, user_ids: Iterable[str]) -> SocialGraph:
        """Build a new :class:`SocialGraph` restricted to the given users."""
        ids = [uid for uid in user_ids]
        for uid in ids:
            self._require(uid)
        sub = SocialGraph(self._users[uid] for uid in ids)
        for a, b, data in self._graph.subgraph(ids).edges(data=True):
            sub.add_relationship(a, b, strength=data.get("strength", 1.0))
        return sub
