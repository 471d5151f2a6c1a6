"""The abstract :class:`ReputationSystem` and its shared machinery.

A reputation system is decomposed, following Marti & Garcia-Molina, into

* *information gathering* — delegated to
  :class:`~repro.reputation.gathering.FeedbackStore`, which
  :meth:`ReputationSystem.record_batch` feeds column batches;
* *scoring and ranking* — the :meth:`ReputationSystem.compute_scores` hook
  each mechanism implements;
* *response* — the simulator's provider selection
  (:meth:`~repro.simulation.engine.InteractionSimulator._select_from`), which
  acts on the scores.

Scores are cached between :meth:`refresh` calls so the simulator can query
``score()`` cheaply inside a round; recomputation happens once per round.
Each mechanism also declares an ``information_requirement`` in ``[0, 1]``:
how much personally-linkable information it needs to operate (rater
identities, full transaction history, ...).  The privacy facet uses this to
translate a mechanism choice into an exposure level — the paper's core
reputation/privacy antagonism.

The mechanisms that score a subject from its own reports alone (Beta,
simple average, TrustMe) share one scoring block, :class:`SubjectFold`:
an incremental per-subject fold.
"""

from __future__ import annotations

import abc

from repro import _profiling
from repro._util import clamp
from repro.reputation.gathering import FeedbackColumns, FeedbackStore, LocalTrustBuilder
from repro.simulation.transaction import Feedback, FeedbackBatch

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

        Ties break lexicographically on the peer id, so rankings are
        deterministic.  Two stable sorts, by id and then by descending
        score, give the ``(-score, id)`` order without building a key
        tuple per peer.
        """
        ranked = sorted(self)
        ranked.sort(key=self.__getitem__, reverse=True)
        return ranked

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

    def record_batch(self, batch: FeedbackBatch) -> None:
        """Ingest disclosed feedback reports, in row order: the one ingest
        path of every mechanism."""
        if len(batch):
            self.store.extend(batch)
            self._dirty = True

    def record_feedback(self, feedback: Feedback) -> None:
        """Ingest one disclosed feedback report (a one-row :meth:`record_batch`)."""
        self.record_batch(FeedbackBatch.of((feedback,)))

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
        """Peer identifiers ordered from most to least reputable
        (:meth:`ScoreView.ranking`)."""
        return self.scores().ranking()

    def known_peers(self) -> list[str]:
        return list(self.store.sorted_participants())

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Drop all evidence and cached scores."""
        self.store.clear()
        self._scores.clear()
        self._dirty = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} evidence={self.evidence_count}>"


class SubjectFold(ReputationSystem):
    """A mechanism that scores each subject from a running aggregate of the
    subject's held reports, left-folded in arrival order.

    A subclass supplies the per-report step (:meth:`_update`) and the score
    of an aggregate (:meth:`_score`).  Refresh is incremental: it folds only
    the reports appended since the previous one, from an ``(epoch,
    position)`` watermark into the store's column log, and a history
    rewrite (eviction, ``clear``) restarts the fold from the first report.
    Each fold call counts its reports as ``folded.<name>``.

    The aggregates are derived from the store, so snapshots and checkpoints
    leave them out: the first refresh after a restore refolds the stored
    reports in arrival order with the same steps, which gives the same
    bits.  A pickle written while the aggregates were kept restores the
    same way.
    """

    #: State that pickles leave out and unpickling drops.
    _NOT_PICKLED: frozenset[str] = frozenset({"_agg", "_agg_watermark"})

    def __init__(
        self,
        *,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
    ) -> None:
        super().__init__(
            default_score=default_score,
            max_evidence_per_subject=max_evidence_per_subject,
        )
        #: subject -> running aggregate (see :meth:`_update`).
        self._agg: dict[str, list[float]] = {}
        #: ``(epoch, position)`` of the column log folded so far.
        self._agg_watermark: tuple[int, int] = (-1, 0)

    def __getstate__(self) -> dict[str, object]:
        dropped = self._NOT_PICKLED
        return {name: value for name, value in self.__dict__.items() if name not in dropped}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(
            (name, value) for name, value in state.items() if name not in self._NOT_PICKLED
        )
        self._agg = {}
        self._agg_watermark = (-1, 0)

    @abc.abstractmethod
    def _update(self, entry: list[float] | None, columns: FeedbackColumns, row: int) -> list[float]:
        """Fold report ``row`` into its subject's aggregate ``entry`` (``None``
        before the subject's first held report) and return the aggregate."""

    @abc.abstractmethod
    def _score(self, entry: list[float]) -> float:
        """The score of a subject whose aggregate is ``entry``."""

    def compute_scores(self) -> dict[str, float]:
        columns = self.store.columns()
        epoch = self.store.epoch
        if self._agg_watermark[0] != epoch:
            self._agg = {}
            self._agg_watermark = (epoch, 0)
        agg = self._agg
        position = self._agg_watermark[1]
        total = len(columns)
        if position < total:
            ids = columns.id_for_code
            subject_codes = columns.subject_codes
            update = self._update
            for row in range(position, total):
                subject = ids[subject_codes[row]]
                agg[subject] = update(agg.get(subject), columns, row)
            self._agg_watermark = (epoch, total)
            _profiling.add_work(f"folded.{self.name}", total - position)
        score = self._score
        return {subject: score(agg[subject]) for subject in self.store.subjects()}
