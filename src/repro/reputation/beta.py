"""Beta reputation: Bayesian positive/negative evidence counting.

The score of a peer is the expected value of a Beta(α, β) posterior with
``α = forgetting-weighted positives + 1`` and ``β = weighted negatives + 1``.
An optional forgetting factor discounts old evidence, which is what lets the
mechanism track traitors (peers that turn bad after building a reputation).
Like the simple average it ignores rater identity, so its information
requirement is low.
"""

from __future__ import annotations


from repro import _profiling
from repro._util import require_unit_interval
from repro.reputation.base import ReputationSystem


class BetaReputation(ReputationSystem):
    """Beta-posterior expected value with exponential forgetting.

    Refresh is incremental: a per-subject running ``(α-mass, β-mass,
    latest time)`` folds in only newly appended reports, from an ``(epoch,
    position)`` watermark into the store's column log; a history rewrite
    (eviction, ``clear``) restarts the fold from the first report.  Without
    forgetting (``forgetting=1.0``, the default) every report weighs exactly
    1.0 and the running masses are integer counts, so the scores are
    *bitwise* identical to a rescan of the whole store (the rescan twin in
    ``tests/oracles``).  With forgetting, a report newer than the subject's
    previous ``latest`` rescales the accumulated mass by
    ``forgetting**(new - old)`` — algebraically equal to the rescan's sum but
    re-associated, so the two agree only to float round-off (~1e-13); the
    1e-9 publication grid of :meth:`ReputationSystem.refresh` absorbs that.
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
        #: subject -> [α mass, β mass, latest report time].  When
        #: ``forgetting == 1.0`` the masses *include* the +1 prior so the
        #: fold order matches the rescan loop addition for addition; otherwise
        #: the prior is added at score time (it must not be rescaled).
        self._agg: dict[str, list[float]] = {}
        self._agg_watermark: tuple[int, int] = (-1, 0)

    def _fold(self, start: int) -> None:
        columns = self.store.columns()
        agg = self._agg
        ids = columns.id_for_code
        subject_codes = columns.subject_codes
        positives = columns.positives
        times = columns.times
        forgetting = self.forgetting
        # repro-lint: ignore[R5] config sentinel selecting the bitwise
        # fold fast path; forgetting arrives by assignment, not arithmetic
        exact = forgetting == 1.0
        prior = 1.0 if exact else 0.0
        for index in range(start, len(subject_codes)):
            subject = ids[subject_codes[index]]
            time = times[index]
            entry = agg.get(subject)
            if entry is None:
                entry = agg[subject] = [prior, prior, time]
            elif time > entry[2]:
                if not exact:
                    scale = forgetting ** (time - entry[2])
                    entry[0] *= scale
                    entry[1] *= scale
                entry[2] = time
            weight = 1.0 if exact else forgetting ** (entry[2] - time)
            if positives[index]:
                entry[0] += weight
            else:
                entry[1] += weight

    def compute_scores(self) -> dict[str, float]:
        epoch = self.store.epoch
        if self._agg_watermark[0] != epoch:
            self._agg = {}
            self._agg_watermark = (epoch, 0)
        position = self._agg_watermark[1]
        total = len(self.store.columns())
        if position < total:
            self._fold(position)
            self._agg_watermark = (epoch, total)
            _profiling.add_work("folded.beta", total - position)
        # repro-lint: ignore[R5] config sentinel (see _fold): exact check
        prior = 0.0 if self.forgetting == 1.0 else 1.0
        scores: dict[str, float] = {}
        for subject in self.store.subjects():
            entry = self._agg[subject]
            alpha = prior + entry[0]
            beta = prior + entry[1]
            scores[subject] = alpha / (alpha + beta)
        return scores
