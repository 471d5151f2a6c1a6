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

from repro._util import require_unit_interval
from repro.reputation.base import ReputationSystem
from repro.simulation.transaction import Feedback


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
        super().__init__(default_score=inner.default_score)
        self.inner = inner
        #: Truth-retention parameter of randomized response: with probability
        #: ``epsilon`` the true rating is forwarded, otherwise a fair coin is
        #: reported.  ``epsilon=1`` disables perturbation.
        self.epsilon = require_unit_interval(epsilon, "epsilon")
        self.strip_identity = strip_identity
        self._rng = random.Random(seed)
        self.perturbed_reports = 0
        self.anonymized_reports = 0

    @property
    def information_requirement(self) -> float:  # type: ignore[override]
        """Strictly lower than the wrapped mechanism's requirement."""
        reduction = 0.5 if self.strip_identity else 0.2
        return max(0.05, self.inner.information_requirement * (1.0 - reduction) * self.epsilon)

    def _transform_feedback(self, feedback: Feedback) -> Feedback:
        rating = feedback.rating
        truthful = feedback.truthful
        if self._rng.random() > self.epsilon:
            # Randomized response: report a fair coin instead of the truth.
            rating = 1.0 if self._rng.random() < 0.5 else 0.0
            truthful = truthful and rating == feedback.rating
            self.perturbed_reports += 1
        rater: str | None = feedback.rater
        if self.strip_identity and rater is not None:
            rater = None
            self.anonymized_reports += 1
        return Feedback(
            transaction_id=feedback.transaction_id,
            time=feedback.time,
            subject=feedback.subject,
            rating=rating,
            rater=rater,
            truthful=truthful,
        )

    def record_feedback(self, feedback: Feedback) -> None:
        transformed = self._transform_feedback(feedback)
        self.store.add(transformed)
        self._dirty = True
        self.inner.record_feedback(transformed)

    def compute_scores(self) -> dict[str, float]:
        return self.inner.compute_scores()

    def refresh(self) -> dict[str, float]:
        self.inner.refresh()
        return super().refresh()

    def reset(self) -> None:
        super().reset()
        self.inner.reset()
        self.perturbed_reports = 0
        self.anonymized_reports = 0
