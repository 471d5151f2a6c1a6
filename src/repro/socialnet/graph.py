"""The :class:`SocialGraph`: users plus their relationship topology.

Users live in an insertion-ordered dict, relationships in an adjacency dict
``user_id -> {neighbour_id: tie strength}`` with ``networkx.Graph``'s
ordering semantics: a user or tie added again keeps its position, and
removing a user removes it from each neighbour's dict.  The class exposes
exactly the operations the rest of the library needs (neighbour queries,
shortest social distance, acquaintance checks, degree statistics).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from repro.errors import ConfigurationError, UnknownPeerError
from repro.socialnet.topology import connected_components
from repro.socialnet.user import User


class SocialGraph:
    """An undirected social graph whose nodes are user identifiers.

    Neighbour and user listings are cached: the simulation inner loops call
    :meth:`neighbors`, :meth:`users` and :meth:`user_ids` once per peer per
    round, and rebuilding fresh lists every time dominated the profile.
    Mutations (:meth:`add_user`, :meth:`add_relationship`,
    :meth:`remove_user`) invalidate the caches.  Treat returned lists as
    read-only views.
    """

    def __init__(self, users: Iterable[User] | None = None) -> None:
        self._users: dict[str, User] = {}
        self._adj: dict[str, dict[str, float]] = {}
        self._neighbors_cache: dict[str, list[str]] = {}
        self._users_cache: list[User] | None = None
        self._user_ids_cache: list[str] | None = None
        self._version = 0
        for user in users or []:
            self.add_user(user)

    def __setstate__(self, state: dict[str, Any]) -> None:
        legacy = state.pop("_graph", None)
        self.__dict__.update(state)
        if legacy is not None:
            # Pickled while the ties lived in a networkx Graph (unpickling one
            # needs networkx installed): take its adjacency, in its order.
            self._adj = {
                node: {neighbour: float(data["strength"]) for neighbour, data in ties.items()}
                for node, ties in legacy.adj.items()
            }
            self._invalidate_caches()

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
        self._adj.setdefault(user.user_id, {})
        self._invalidate_caches()

    def add_relationship(self, a: str, b: str, *, strength: float = 1.0) -> None:
        """Connect two existing users with a tie of the given strength."""
        self._require(a)
        self._require(b)
        if a == b:
            raise ConfigurationError("self relationships are not allowed")
        self._adj[a][b] = self._adj[b][a] = float(strength)
        self._invalidate_caches()

    def remove_user(self, user_id: str) -> None:
        """Remove a user and all its relationships (e.g. permanent churn)."""
        self._require(user_id)
        for neighbour in self._adj.pop(user_id):
            del self._adj[neighbour][user_id]
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
            cached = list(self._adj[user_id])
            self._neighbors_cache[user_id] = cached
        return cached

    def are_connected(self, a: str, b: str) -> bool:
        self._require(a)
        self._require(b)
        return b in self._adj[a]

    def tie_strength(self, a: str, b: str) -> float:
        """Strength of the tie between two users, 0.0 when not connected."""
        self._require(a)
        self._require(b)
        return self._adj[a].get(b, 0.0)

    def degree(self, user_id: str) -> int:
        self._require(user_id)
        return len(self._adj[user_id])

    def number_of_edges(self) -> int:
        return sum(len(neighbours) for neighbours in self._adj.values()) // 2

    def social_distance(self, a: str, b: str) -> int | None:
        """Shortest-path hop count between two users, ``None`` if unreachable."""
        self._require(a)
        self._require(b)
        seen = {a}
        frontier = [a]
        distance = 0
        while frontier:
            if b in seen:
                return distance
            distance += 1
            next_frontier = []
            for node in frontier:
                for neighbour in self._adj[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return None

    def is_connected(self) -> bool:
        """Whether the whole graph forms a single connected component."""
        if len(self) == 0:
            return True
        return len(next(connected_components(self._adj))) == len(self)

    def largest_component(self) -> list[str]:
        """Identifiers of the largest connected component, in user order."""
        if len(self) == 0:
            return []
        largest = max(connected_components(self._adj), key=len)
        return [user_id for user_id in self._adj if user_id in largest]

    def average_degree(self) -> float:
        if len(self) == 0:
            return 0.0
        return 2.0 * self.number_of_edges() / len(self)

    def clustering_coefficient(self) -> float:
        """Average clustering coefficient of the graph (0.0 when empty).

        networkx's formula: per user 2T/(d(d-1)) with T the triangles
        through it and d its degree (0 when T is 0), summed in user order
        and divided by the number of users.
        """
        if len(self) == 0:
            return 0.0
        coefficients: list[float] = []
        for neighbours in self._adj.values():
            degree = len(neighbours)
            twice_triangles = sum(1 for w in neighbours for x in self._adj[w] if x in neighbours)
            coefficients.append(
                0 if twice_triangles == 0 else twice_triangles / (degree * (degree - 1))
            )
        return sum(coefficients) / len(coefficients)

    def honest_fraction(self) -> float:
        """Fraction of users that are predominantly honest."""
        if not self._users:
            return 0.0
        honest = sum(1 for user in self._users.values() if user.is_honest)
        return honest / len(self._users)
