"""The abstract :class:`ReputationSystem` and its shared machinery.

A reputation system is decomposed, following Marti & Garcia-Molina, into

* *information gathering* — delegated to
  :class:`~repro.reputation.gathering.FeedbackStore`;
* *scoring and ranking* — the :meth:`ReputationSystem.compute_scores` hook
  each mechanism implements;
* *response* — the policies of :mod:`repro.reputation.response`, which act on
  the scores.

Scores are cached between :meth:`refresh` calls so the simulator can query
``score()`` cheaply inside a round; recomputation happens once per round.
Each mechanism also declares an ``information_requirement`` in ``[0, 1]``:
how much personally-linkable information it needs to operate (rater
identities, full transaction history, ...).  The privacy facet uses this to
translate a mechanism choice into an exposure level — the paper's core
reputation/privacy antagonism.
"""

from __future__ import annotations

import abc

from repro._util import clamp
from repro.reputation.gathering import FeedbackStore, LocalTrustBuilder
from repro.simulation.transaction import Feedback

#: Published scores are rounded to this many decimals.  Rationale: the
#: array kernels, the incremental folds and the loop references under
#: ``tests/oracles`` accumulate floating point in different orders
#: (sequential dict walks vs BLAS reductions), so raw scores can differ in
#: the last few ulps.  Snapping to a 1e-9 grid absorbs that noise, making
#: every downstream decision (provider selection, rankings, sweep records)
#: identical regardless of the summation order that computed the scores.
#: The grid is deliberately coarse relative to the ~1e-16 noise: a score
#: only publishes differently if it lands within an ulp of a rounding
#: midpoint, and the wide ratio makes that a ~1e-7 event per score instead
#: of a once-per-large-campaign one.
SCORE_DECIMALS = 9


class ScoreView(dict[str, float]):
    """Published reputation scores, typed for the public boundary.

    A ``dict`` subclass, so the *old* public shape — ``refresh()`` and
    ``scores()`` returning a bare ``peer_id -> score`` mapping — keeps
    working unchanged (iteration, ``json.dumps``, ``==`` against plain
    dicts, everything).  The class exists so facade consumers get typed
    helpers instead of re-deriving rankings and defaults from a raw dict:
    :meth:`ranking`, :meth:`top`, :meth:`score_of` and the
    :attr:`default_score` the mechanism would hand out for unknown peers.
    ``as_dict()`` is the explicit deprecation alias for code that wants the
    legacy plain-dict shape back.
    """

    #: Score served for peers the mechanism has no evidence about.
    default_score: float

    def __init__(
        self, scores: dict[str, float] | None = None, *, default_score: float = 0.5
    ) -> None:
        super().__init__(scores if scores is not None else {})
        self.default_score = default_score

    def score_of(self, peer_id: str) -> float:
        """Score of a peer; unknown peers get :attr:`default_score`."""
        return self.get(peer_id, self.default_score)

    def ranking(self) -> list[str]:
        """Peer identifiers ordered from most to least reputable.

        Ties break lexicographically on the peer id, mirroring
        :meth:`ReputationSystem.ranking`, so rankings are deterministic.
        """
        return sorted(self, key=lambda peer: (-self[peer], peer))

    def top(self, n: int) -> list[tuple[str, float]]:
        """The ``n`` most reputable ``(peer_id, score)`` pairs."""
        return [(peer, self[peer]) for peer in self.ranking()[: max(n, 0)]]

    def as_dict(self) -> dict[str, float]:
        """The legacy bare-dict shape (plain copy, no view semantics)."""
        return dict(self)


class ReputationSystem(abc.ABC):
    """Base class of every reputation mechanism."""

    #: Human-readable mechanism name; subclasses override.
    name: str = "abstract"

    #: How much personally-linkable information the mechanism requires, in
    #: ``[0, 1]``.  0 means only blinded aggregate counts, 1 means full
    #: identified per-transaction histories.
    information_requirement: float = 0.5

    def __init__(
        self,
        *,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
    ) -> None:
        self.default_score = clamp(default_score)
        self.store = FeedbackStore(max_per_subject=max_evidence_per_subject)
        self.local_trust = LocalTrustBuilder(self.store)
        self._scores: dict[str, float] = {}
        self._dirty = False

    # -- information gathering -------------------------------------------

    def record_feedback(self, feedback: Feedback) -> None:
        """Ingest one disclosed feedback report."""
        self.store.add(self._transform_feedback(feedback))
        self._dirty = True

    def _transform_feedback(self, feedback: Feedback) -> Feedback:
        """Hook for wrappers that blind or perturb incoming feedback."""
        return feedback

    @property
    def evidence_count(self) -> int:
        return len(self.store)

    # -- scoring and ranking -----------------------------------------------

    @abc.abstractmethod
    def compute_scores(self) -> dict[str, float]:
        """Recompute the score of every known peer; values in ``[0, 1]``."""

    def refresh(self) -> ScoreView:
        """Recompute and cache scores if new evidence arrived since last time.

        Scores are clamped into ``[0, 1]`` and quantized to the 1e-9
        :data:`SCORE_DECIMALS` grid — see the note there on summation-order
        determinism.  Returns a :class:`ScoreView` (a ``dict`` subclass:
        the historical bare-dict return shape is a strict subset of it).
        """
        if self._dirty or not self._scores:
            # Inline clamp: this comprehension publishes every score of
            # every mechanism once per simulation round.
            self._scores = {
                peer: round(0.0 if score < 0.0 else (1.0 if score > 1.0 else score), SCORE_DECIMALS)
                for peer, score in self.compute_scores().items()
            }
            self._dirty = False
        return ScoreView(self._scores, default_score=self.default_score)

    def score(self, peer_id: str) -> float:
        """Cached score of a peer; unknown peers get the default score."""
        if self._dirty:
            self.refresh()
        return self._scores.get(peer_id, self.default_score)

    def scores(self) -> ScoreView:
        """Cached scores of every known peer as a :class:`ScoreView`."""
        if self._dirty or not self._scores:
            self.refresh()
        return ScoreView(self._scores, default_score=self.default_score)

    def ranking(self) -> list[str]:
        """Peer identifiers ordered from most to least reputable."""
        current = self.scores()
        return sorted(current, key=lambda peer: (-current[peer], peer))

    def known_peers(self) -> list[str]:
        return sorted(self.store.participants())

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Drop all evidence and cached scores."""
        self.store.clear()
        self._scores.clear()
        self._dirty = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} evidence={self.evidence_count}>"
