"""Privacy-preserving feedback: anonymization and randomized response.

The paper points to "reputation systems for anonymous networks" and
"signatures of reputation" as ways to reconcile reputation with privacy.  The
:class:`AnonymousFeedbackReputation` wrapper captures the essence of that
trade-off without the cryptography: before a report reaches the wrapped
mechanism,

* the rater identity is stripped (unlinkability), and
* the rating is flipped with probability ``(1 - epsilon) / 2`` (randomized
  response), giving each rater plausible deniability about what they said.

Both transformations reduce the exposure of the rater — and both degrade the
accuracy of the wrapped mechanism, which is exactly the privacy/reputation
antagonism of Figure 2.  The ablation experiment E-A2 quantifies it.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro._util import require_unit_interval
from repro.reputation.base import ReputationSystem
from repro.reputation.gathering import FeedbackStore
from repro.simulation.transaction import FeedbackBatch


class AnonymousFeedbackReputation(ReputationSystem):
    """Wrap a reputation mechanism behind an anonymizing feedback channel."""

    name = "anonymous"

    def __init__(
        self,
        inner: ReputationSystem,
        *,
        epsilon: float = 1.0,
        strip_identity: bool = True,
        seed: int = 0,
    ) -> None:
        # Not ReputationSystem.__init__, which builds a store: the wrapper's
        # ``store`` (so ``evidence_count``, ``known_peers``) is the inner one.
        self.inner = inner
        self.default_score = inner.default_score
        self._scores: dict[str, float] = {}
        self._dirty = False
        #: Truth-retention parameter of randomized response: with probability
        #: ``epsilon`` the true rating is forwarded, otherwise a fair coin is
        #: reported.  ``epsilon=1`` disables perturbation.
        self.epsilon = require_unit_interval(epsilon, "epsilon")
        self.strip_identity = strip_identity
        self._rng = random.Random(seed)
        self.perturbed_reports = 0
        self.anonymized_reports = 0

    @property
    def store(self) -> FeedbackStore:  # type: ignore[override]
        return self.inner.store

    @property
    def information_requirement(self) -> float:  # type: ignore[override]
        """Strictly lower than the wrapped mechanism's requirement."""
        reduction = 0.5 if self.strip_identity else 0.2
        return max(0.05, self.inner.information_requirement * (1.0 - reduction) * self.epsilon)

    def record_batch(self, batch: FeedbackBatch) -> None:
        """Forward the reports, each transformed in row order."""
        ratings = list(batch.ratings)
        truthful = list(batch.truthful)
        draw = self._rng.random
        for row, rating in enumerate(batch.ratings):
            if draw() > self.epsilon:
                # Randomized response: report a fair coin instead of the truth.
                ratings[row] = 1.0 if draw() < 0.5 else 0.0
                truthful[row] = truthful[row] and ratings[row] == rating
                self.perturbed_reports += 1
        raters = batch.raters
        if self.strip_identity:
            self.anonymized_reports += len(raters) - raters.count(None)
            raters = [None] * len(raters)
        self.inner.record_batch(
            replace(batch, ratings=ratings, raters=raters, truthful=truthful)
        )
        self._dirty = True

    def compute_scores(self) -> dict[str, float]:
        # The inner mechanism's published scores: clamping and the 1e-9
        # rounding are idempotent, so publishing them again changes nothing.
        return self.inner.refresh()

    def reset(self) -> None:
        super().reset()
        self.inner.reset()
        self.perturbed_reports = 0
        self.anonymized_reports = 0
