"""Measuring "reputation power": how consistent scores are with reality.

The paper defines the reputation axis of Figure 2 as "the satisfaction of the
reputation mechanism in terms of power as reliability, efficiency and most of
all, consistency with the reality".  The simulator knows the ground truth
(each peer's honesty), so consistency is measurable:

* :func:`pairwise_ranking_accuracy` — probability that the mechanism orders a
  random honest/dishonest pair correctly (an AUC-like measure);
* :func:`mean_absolute_error` — distance between scores and honesty;
* :func:`reputation_power` — the composite in ``[0, 1]`` used as the
  reputation facet input;
* :func:`spearman_rank_correlation` — the robustness-scenario measure of
  rank agreement with ground truth.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro._util import clamp, mean


def _aligned(scores: Mapping[str, float], ground_truth: Mapping[str, float]) -> dict[str, float]:
    """Restrict scores to peers with known ground truth."""
    return {peer: scores[peer] for peer in scores if peer in ground_truth}


def pairwise_ranking_accuracy(
    scores: Mapping[str, float], ground_truth: Mapping[str, float]
) -> float:
    """Fraction of (honest, dishonest) pairs ranked in the right order.

    Ties in score count half, as in the usual AUC convention.  Returns 0.5
    (chance level) when either class is empty or no scores overlap the ground
    truth.
    """
    aligned = _aligned(scores, ground_truth)
    honest = [peer for peer in aligned if ground_truth[peer] >= 0.5]
    dishonest = [peer for peer in aligned if ground_truth[peer] < 0.5]
    if not honest or not dishonest:
        return 0.5
    correct = 0.0
    for good in honest:
        for bad in dishonest:
            if aligned[good] > aligned[bad]:
                correct += 1.0
            elif aligned[good] == aligned[bad]:
                correct += 0.5
    return correct / (len(honest) * len(dishonest))


def mean_absolute_error(scores: Mapping[str, float], ground_truth: Mapping[str, float]) -> float:
    """Mean absolute difference between score and ground-truth honesty."""
    aligned = _aligned(scores, ground_truth)
    if not aligned:
        return 1.0
    return mean(abs(score - ground_truth[peer]) for peer, score in aligned.items())


def _average_ranks(values: dict[str, float]) -> dict[str, float]:
    """Fractional ranks (ties get the average of their rank span)."""
    ordered = sorted(values, key=lambda peer: (values[peer], peer))
    ranks: dict[str, float] = {}
    index = 0
    while index < len(ordered):
        tail = index
        while tail + 1 < len(ordered) and values[ordered[tail + 1]] == values[ordered[index]]:
            tail += 1
        average = (index + tail) / 2.0 + 1.0
        for position in range(index, tail + 1):
            ranks[ordered[position]] = average
        index = tail + 1
    return ranks


def spearman_rank_correlation(
    scores: Mapping[str, float], ground_truth: Mapping[str, float]
) -> float:
    """Spearman rank correlation between scores and ground truth, in ``[-1, 1]``.

    Ties receive fractional (average) ranks, the standard convention.
    Returns 0.0 when fewer than two peers overlap or either side is
    constant (zero variance makes the coefficient undefined; 0 — "no
    evidence of agreement" — is the useful reading for robustness metrics).
    Pure-Python on purpose: robustness records must not depend on a BLAS
    summation order.
    """
    aligned = _aligned(scores, ground_truth)
    if len(aligned) < 2:
        return 0.0
    score_ranks = _average_ranks(aligned)
    truth_ranks = _average_ranks({peer: ground_truth[peer] for peer in aligned})
    n = len(aligned)
    mean_rank = (n + 1) / 2.0
    covariance = 0.0
    score_variance = 0.0
    truth_variance = 0.0
    for peer in aligned:
        ds = score_ranks[peer] - mean_rank
        dt = truth_ranks[peer] - mean_rank
        covariance += ds * dt
        score_variance += ds * ds
        truth_variance += dt * dt
    # repro-lint: ignore[R5] exact sentinel: rank variances are exactly
    # 0.0 only when every rank ties, where the correlation is undefined
    if score_variance == 0.0 or truth_variance == 0.0:
        return 0.0
    return covariance / (score_variance * truth_variance) ** 0.5


def reputation_power(
    scores: Mapping[str, float],
    ground_truth: Mapping[str, float],
    *,
    coverage_weight: float = 0.25,
) -> float:
    """Composite reputation-power score in ``[0, 1]``.

    Combines consistency with reality (rescaled ranking accuracy: 0.5 maps to
    0, 1.0 maps to 1) with coverage — the fraction of the population the
    mechanism has evidence about.  A mechanism that is perfectly consistent
    but only knows 10% of the peers is not powerful.
    """
    if not ground_truth:
        return 0.0
    ranking = pairwise_ranking_accuracy(scores, ground_truth)
    consistency = clamp((ranking - 0.5) * 2.0)
    coverage = len(_aligned(scores, ground_truth)) / len(ground_truth)
    weight = clamp(coverage_weight)
    return clamp((1.0 - weight) * consistency + weight * coverage)
