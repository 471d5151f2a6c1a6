"""Aggregating individual satisfaction into local and global views.

Section 3: "a user can have a satisfaction perception that can be influenced
only by its local vision of the system, or by a global one".  The local
vision of a user is the satisfaction of its community (social neighbourhood);
the global vision is the whole population.  Both are needed by the trust
model: the paper's Figure 2 satisfaction axis is the *global* users'
satisfaction, while per-user trust uses the local one.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro._util import mean, require_unit_interval


def global_satisfaction(
    satisfactions: Mapping[str, float],
    *,
    weights: Mapping[str, float] | None = None,
    fairness_weight: float = 0.25,
) -> float:
    """Global users' satisfaction in ``[0, 1]``.

    The mean satisfaction, optionally participation-weighted, blended with
    the minimum: a system that satisfies most users but starves a few is less
    globally satisfying than its mean suggests (the fairness concern behind
    "users may decide to leave the system").
    """
    require_unit_interval(fairness_weight, "fairness_weight")
    values = dict(satisfactions)
    if not values:
        return 0.0
    if weights:
        total_weight = sum(max(0.0, weights.get(user, 0.0)) for user in values)
        if total_weight > 0:
            weighted = sum(
                value * max(0.0, weights.get(user, 0.0)) for user, value in values.items()
            ) / total_weight
        else:
            weighted = mean(values.values())
    else:
        weighted = mean(values.values())
    worst = min(values.values())
    return (1.0 - fairness_weight) * weighted + fairness_weight * worst


def local_satisfaction(
    user: str,
    satisfactions: Mapping[str, float],
    neighbourhood: Iterable[str],
) -> float:
    """The user's local vision: mean satisfaction over itself and its neighbours."""
    relevant = [user, *(other for other in neighbourhood if other != user)]
    values = [satisfactions[other] for other in relevant if other in satisfactions]
    if not values:
        return satisfactions.get(user, 0.5)
    return mean(values)
