"""Simple-average reputation: the weakest meaningful baseline.

The score of a peer is the arithmetic mean of all ratings reported about it,
regardless of who reported them.  It is cheap, needs no rater identities
(low information requirement) but is trivially manipulable by dishonest
raters — exactly the contrast the paper's reputation-power axis captures.
"""

from __future__ import annotations


from repro import _profiling
from repro.reputation.base import ReputationSystem


class SimpleAverageReputation(ReputationSystem):
    """Mean rating per subject.

    Refresh is incremental: a per-subject running ``(sum, count)`` folds in
    only the feedback appended since the previous refresh, and a history
    rewrite (eviction, ``clear``) restarts the fold from the first report.
    The running sum left-folds ratings in exactly the order a rescan of the
    subject's reports would (per-subject append order), so the score is
    *bitwise* identical to a per-subject mean over the whole store — no
    quantization needed to absorb it.
    """

    name = "average"
    information_requirement = 0.2

    def __init__(self, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        #: subject -> [rating sum, report count]
        self._agg: dict[str, list[float]] = {}
        self._agg_watermark: tuple[int, int] = (-1, 0)

    def compute_scores(self) -> dict[str, float]:
        """Fold newly appended feedback into the running per-subject sums."""
        columns = self.store.columns()
        epoch = self.store.epoch
        if self._agg_watermark[0] != epoch:
            self._agg = {}
            self._agg_watermark = (epoch, 0)
        position = self._agg_watermark[1]
        if position < len(columns):
            agg = self._agg
            ids = columns.id_for_code
            subject_codes = columns.subject_codes
            ratings = columns.ratings
            for index in range(position, len(subject_codes)):
                subject = ids[subject_codes[index]]
                entry = agg.get(subject)
                if entry is None:
                    agg[subject] = [ratings[index], 1]
                else:
                    entry[0] += ratings[index]
                    entry[1] += 1
            self._agg_watermark = (epoch, len(subject_codes))
            _profiling.add_work("folded.average", len(subject_codes) - position)
        agg = self._agg
        return {
            subject: agg[subject][0] / agg[subject][1] for subject in self.store.subjects()
        }
