"""Interaction traces between socially connected users.

Reputation "is constructed from the interaction and feedback of users"
(paper, Section 3).  The trace generator produces a stream of typed
interactions (messages, content shares, service requests, ratings) between
connected users, biased by tie strength and user activity.  The simulation
does not consume these traces (it draws its own transactions); only the
tests exercise this module.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.socialnet.graph import SocialGraph


class InteractionKind(enum.Enum):
    """The kinds of pairwise interactions a social network mediates."""

    MESSAGE = "message"
    CONTENT_SHARE = "content_share"
    SERVICE_REQUEST = "service_request"
    RATING = "rating"
    FRIEND_REQUEST = "friend_request"


@dataclass(frozen=True)
class Interaction:
    """One directed interaction from ``initiator`` to ``partner`` at ``time``."""

    time: int
    initiator: str
    partner: str
    kind: InteractionKind
    payload_sensitivity: float = 0.0

    def __post_init__(self) -> None:
        if self.initiator == self.partner:
            raise ConfigurationError("interactions require two distinct users")
        if not 0.0 <= self.payload_sensitivity <= 1.0:
            raise ConfigurationError("payload_sensitivity must be in [0, 1]")


@dataclass
class InteractionTrace:
    """An ordered collection of interactions plus convenience accessors."""

    interactions: list[Interaction] = field(default_factory=list)

    def append(self, interaction: Interaction) -> None:
        self.interactions.append(interaction)

    def __len__(self) -> int:
        return len(self.interactions)

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self.interactions)

    def involving(self, user_id: str) -> list[Interaction]:
        """Every interaction the user initiated or received."""
        return [i for i in self.interactions if user_id in (i.initiator, i.partner)]

    def initiated_by(self, user_id: str) -> list[Interaction]:
        return [i for i in self.interactions if i.initiator == user_id]

    def pair_count(self, a: str, b: str) -> int:
        """Number of interactions (either direction) between two users."""
        return sum(1 for i in self.interactions if {i.initiator, i.partner} == {a, b})

    def span(self) -> int:
        """Number of distinct time steps covered by the trace."""
        if not self.interactions:
            return 0
        times = {i.time for i in self.interactions}
        return max(times) - min(times) + 1


class InteractionTraceGenerator:
    """Generate interaction traces over a :class:`SocialGraph`.

    Each step, every user initiates an interaction with probability equal to
    its ``activity``; the partner is a neighbour sampled proportionally to tie
    strength.  The payload sensitivity is drawn from the initiator's privacy
    concern so privacy-conscious users tend to exchange more sensitive data
    (which is what makes their policies matter).
    """

    def __init__(
        self,
        graph: SocialGraph,
        *,
        kinds: Sequence[InteractionKind] | None = None,
        seed: int = 0,
    ) -> None:
        if len(graph) < 2:
            raise ConfigurationError("need at least two users to interact")
        self._graph = graph
        self._kinds = list(kinds) if kinds else list(InteractionKind)
        self._rng = random.Random(seed)

    def _pick_partner(self, user_id: str) -> str | None:
        neighbors = self._graph.neighbors(user_id)
        if not neighbors:
            return None
        weights = [self._graph.tie_strength(user_id, n) for n in neighbors]
        total = sum(weights)
        # repro-lint: ignore[R5] exact sentinel: non-negative tie strengths
        # sum to exactly 0.0 only when all are exactly zero
        if total == 0.0:
            return self._rng.choice(neighbors)
        return self._rng.choices(neighbors, weights=weights, k=1)[0]

    def generate(self, steps: int) -> InteractionTrace:
        """Generate a trace covering ``steps`` time steps."""
        if steps < 0:
            raise ConfigurationError("steps must be non-negative")
        trace = InteractionTrace()
        for t in range(steps):
            for user in self._graph.users():
                if self._rng.random() >= user.activity:
                    continue
                partner = self._pick_partner(user.user_id)
                if partner is None:
                    continue
                kind = self._rng.choice(self._kinds)
                sensitivity = self._rng.uniform(0.0, user.privacy_concern)
                trace.append(
                    Interaction(
                        time=t,
                        initiator=user.user_id,
                        partner=partner,
                        kind=kind,
                        payload_sensitivity=sensitivity,
                    )
                )
        return trace
