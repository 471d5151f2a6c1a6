"""Beta reputation: Bayesian positive/negative evidence counting.

The score of a peer is the expected value of a Beta(α, β) posterior with
``α = forgetting-weighted positives + 1`` and ``β = weighted negatives + 1``.
An optional forgetting factor discounts old evidence, which is what lets the
mechanism track traitors (peers that turn bad after building a reputation).
Like the simple average it ignores rater identity, so its information
requirement is low.
"""

from __future__ import annotations

from repro._util import require_unit_interval
from repro.reputation.base import SubjectFold
from repro.reputation.gathering import FeedbackColumns


class BetaReputation(SubjectFold):
    """Beta-posterior expected value with exponential forgetting.

    A subject's aggregate is its running ``(α-mass, β-mass, latest time)``
    (see :class:`~repro.reputation.base.SubjectFold` for the incremental
    refresh).  A report newer than the subject's previous ``latest``
    rescales the accumulated mass by ``forgetting**(new - old)``:
    algebraically equal to a rescan's sum of ``forgetting**(latest - t)``
    but re-associated, so the two agree only to float round-off (~1e-13),
    which the 1e-9 publication grid of
    :meth:`~repro.reputation.base.ReputationSystem.refresh` absorbs.
    Without forgetting (``forgetting=1.0``, the default) every weight and
    scale is exactly 1.0 and the masses are integer counts, so the scores
    are *bitwise* identical to a rescan of the whole store (the rescan twin
    in ``tests/oracles``).
    """

    name = "beta"
    information_requirement = 0.3

    def __init__(
        self,
        *,
        forgetting: float = 1.0,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
    ) -> None:
        super().__init__(
            default_score=default_score,
            max_evidence_per_subject=max_evidence_per_subject,
        )
        self.forgetting = require_unit_interval(forgetting, "forgetting")

    def _update(self, entry: list[float] | None, columns: FeedbackColumns, row: int) -> list[float]:
        time = columns.times[row]
        if entry is None:
            entry = [0.0, 0.0, time]
        elif time > entry[2]:
            scale = self.forgetting ** (time - entry[2])
            entry[0] *= scale
            entry[1] *= scale
            entry[2] = time
        # The prior is added at score time: it must not be rescaled.
        weight = self.forgetting ** (entry[2] - time)
        if columns.positives[row]:
            entry[0] += weight
        else:
            entry[1] += weight
        return entry

    def _score(self, entry: list[float]) -> float:
        alpha = 1.0 + entry[0]
        beta = 1.0 + entry[1]
        return alpha / (alpha + beta)
