"""The *response* block: acting on reputation scores.

Scores only help users if they change behaviour — which partner to pick,
whom to refuse.  Three standard policies are provided.  Nothing in the
library calls them yet: the simulator and the query-allocation mediator
choose partners with their own rules, and only the tests exercise this
module.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Sequence

from repro._util import require_unit_interval
from repro.errors import ConfigurationError


class ResponsePolicy(abc.ABC):
    """Pick one candidate given their reputation scores."""

    name: str = "abstract"

    @abc.abstractmethod
    def select(
        self,
        candidates: Sequence[str],
        scores: dict[str, float],
        rng: random.Random | None = None,
    ) -> str:
        """Return the chosen candidate identifier."""

    @staticmethod
    def _check(candidates: Sequence[str]) -> None:
        if not candidates:
            raise ConfigurationError("cannot select from an empty candidate set")


class SelectBest(ResponsePolicy):
    """Deterministically choose the highest-scoring candidate."""

    name = "select-best"

    def select(
        self,
        candidates: Sequence[str],
        scores: dict[str, float],
        rng: random.Random | None = None,
    ) -> str:
        self._check(candidates)
        return max(candidates, key=lambda peer: (scores.get(peer, 0.0), peer))


class ProbabilisticSelection(ResponsePolicy):
    """Choose proportionally to score, keeping some probability for everyone.

    EigenTrust recommends probabilistic selection to avoid overloading the
    most reputable peers and to give newcomers a chance to build reputation;
    ``floor`` is the minimum weight any candidate keeps.
    """

    name = "probabilistic"

    def __init__(self, floor: float = 0.05) -> None:
        self.floor = require_unit_interval(floor, "floor")

    def select(
        self,
        candidates: Sequence[str],
        scores: dict[str, float],
        rng: random.Random | None = None,
    ) -> str:
        self._check(candidates)
        # Deterministic fallback: an unseeded Random would pull OS entropy
        # into the run.  Callers wanting varied draws pass their own rng
        # (the engine hands a named RandomStreams stream).
        rng = rng or random.Random(0)
        weights = [max(self.floor, scores.get(peer, 0.0)) for peer in candidates]
        total = sum(weights)
        # repro-lint: ignore[R5] exact sentinel: total is 0.0 only when floor
        # and every score are exactly zero (no arithmetic noise involved)
        if total == 0.0:
            return rng.choice(list(candidates))
        return rng.choices(list(candidates), weights=weights, k=1)[0]


class ThresholdBan(ResponsePolicy):
    """Exclude candidates below a reputation threshold, then pick the best.

    If every candidate falls below the threshold the least bad one is chosen;
    refusing to interact entirely is modelled at a higher level (the
    simulator simply skips the transaction in that case when configured to).
    """

    name = "threshold-ban"

    def __init__(self, threshold: float = 0.3) -> None:
        self.threshold = require_unit_interval(threshold, "threshold")

    def acceptable(self, candidates: Sequence[str], scores: dict[str, float]) -> list[str]:
        return [peer for peer in candidates if scores.get(peer, 0.0) >= self.threshold]

    def select(
        self,
        candidates: Sequence[str],
        scores: dict[str, float],
        rng: random.Random | None = None,
    ) -> str:
        self._check(candidates)
        acceptable = self.acceptable(candidates, scores)
        pool = acceptable if acceptable else list(candidates)
        return max(pool, key=lambda peer: (scores.get(peer, 0.0), peer))
