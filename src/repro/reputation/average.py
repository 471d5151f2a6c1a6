"""Simple-average reputation: the weakest meaningful baseline.

The score of a peer is the arithmetic mean of all ratings reported about it,
regardless of who reported them.  It is cheap, needs no rater identities
(low information requirement) but is trivially manipulable by dishonest
raters — exactly the contrast the paper's reputation-power axis captures.
"""

from __future__ import annotations

from repro.reputation.base import SubjectFold
from repro.reputation.gathering import FeedbackColumns


class SimpleAverageReputation(SubjectFold):
    """Mean rating per subject.

    A subject's aggregate is its running ``(sum, count)`` (see
    :class:`~repro.reputation.base.SubjectFold` for the incremental
    refresh).  The running sum left-folds ratings in exactly the order a
    rescan of the subject's reports would (per-subject append order), so the
    score is *bitwise* identical to a per-subject mean over the whole store
    — no quantization needed to absorb it.
    """

    name = "average"
    information_requirement = 0.2

    def _update(self, entry: list[float] | None, columns: FeedbackColumns, row: int) -> list[float]:
        rating = columns.ratings[row]
        if entry is None:
            return [rating, 1]
        entry[0] += rating
        entry[1] += 1
        return entry

    def _score(self, entry: list[float]) -> float:
        return entry[0] / entry[1]
