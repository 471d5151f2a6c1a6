"""Loop references for the reputation kernels.

The ``Oracle*`` subclasses swap a mechanism's ``compute_scores`` for the
loop reference and keep everything else, publication included, so a test
can compare what the kernel-backed and the reference mechanism *publish*.
"""

from __future__ import annotations

from repro._util import mean
from repro.core.backend import FLAT_SPREAD
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.gathering import FeedbackStore, LocalTrustBuilder
from repro.reputation.powertrust import PowerTrust, _quantized


def raw_local_trust(builder: LocalTrustBuilder) -> dict[str, dict[str, float]]:
    """``{rater: {subject: max(0, positives - negatives)}}``."""
    return {
        rater: {subject: max(0.0, value) for subject, value in row.items()}
        for rater, row in builder.pair_totals().items()
    }


def normalized_local_trust(
    builder: LocalTrustBuilder, peers: list[str] | None = None
) -> dict[str, dict[str, float]]:
    """Row-normalized local trust ``c_ij`` (the loop form of
    :func:`repro.core.backend.local_trust_matrix`).

    Rows that are entirely zero stay empty: those peers dangle and their
    mass is redistributed over the restart distribution.
    """
    raw = raw_local_trust(builder)
    known = set(peers) if peers is not None else builder._store.participants()
    normalized: dict[str, dict[str, float]] = {}
    for rater in known:
        row = raw.get(rater, {})
        row = {subject: value for subject, value in row.items() if subject in known}
        total = sum(row.values())
        if total > 0.0:
            normalized[rater] = {s: v / total for s, v in row.items()}
        else:
            normalized[rater] = {}
    return normalized


def minmax_rescale_dict(trust: dict[str, float]) -> dict[str, float]:
    """Loop form of :func:`repro.core.backend.minmax_rescale`: flat
    mappings go to 0.5, otherwise clamp((v - low) / spread)."""
    if not trust:
        return {}
    low = min(trust.values())
    high = max(trust.values())
    if high - low < FLAT_SPREAD:
        return {peer: 0.5 for peer in trust}
    spread = high - low
    return {peer: min(1.0, max(0.0, (value - low) / spread)) for peer, value in trust.items()}


def power_iteration(
    peers: list[str],
    local: dict[str, dict[str, float]],
    restart: dict[str, float],
    *,
    restart_weight: float,
    max_iterations: int,
    tolerance: float,
) -> tuple[dict[str, float], int]:
    """Loop form of :func:`repro.core.backend.power_iteration`.

    Peers without outgoing trust redistribute their mass over the restart
    distribution; the mass is accumulated once per iteration and spread in
    a single pass.  Returns ``(trust, iterations used)``.
    """
    trust = dict(restart)
    dangling = [peer for peer in peers if not local.get(peer)]
    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        updated = {peer: 0.0 for peer in peers}
        dangling_mass = sum(trust[peer] for peer in dangling)
        for rater in peers:
            row = local.get(rater)
            if not row:
                continue
            mass = trust[rater]
            for subject, weight in row.items():
                updated[subject] += mass * weight
        if dangling_mass:
            for peer in peers:
                updated[peer] += dangling_mass * restart[peer]
        blended = {
            peer: (1.0 - restart_weight) * updated[peer] + restart_weight * restart[peer]
            for peer in peers
        }
        delta = sum(abs(blended[peer] - trust[peer]) for peer in peers)
        trust = blended
        if delta < tolerance:
            break
    return trust, iterations


def eigentrust_scores(system: EigenTrust) -> tuple[dict[str, float], int]:
    """EigenTrust's raw scores and iteration count, computed by loops."""
    peers = list(system.store.sorted_participants())
    if not peers:
        return {}, 0
    trust, iterations = power_iteration(
        peers,
        normalized_local_trust(system.local_trust, peers),
        system._pretrusted_distribution(peers),
        restart_weight=system.restart_weight,
        max_iterations=system.max_iterations,
        tolerance=system.tolerance,
    )
    return minmax_rescale_dict(trust), iterations


def powertrust_scores(
    system: PowerTrust, power_nodes: list[str]
) -> tuple[dict[str, float], list[str]]:
    """PowerTrust's raw scores and the power nodes it settles on, computed
    by loops from the warm-start ``power_nodes``."""
    peers = list(system.store.sorted_participants())
    if not peers:
        return {}, list(power_nodes)
    local = normalized_local_trust(system.local_trust, peers)
    nodes = list(power_nodes)
    trust: dict[str, float] = {}
    for _ in range(system.power_node_rounds):
        trust, _ = power_iteration(
            peers,
            local,
            system._restart_distribution(peers, nodes),
            restart_weight=system.restart_weight,
            max_iterations=system.max_iterations,
            tolerance=system.tolerance,
        )
        new_nodes = system.overlay.select_power_nodes(_quantized(trust), system.n_power_nodes)
        if new_nodes == nodes:
            break
        nodes = new_nodes
    return minmax_rescale_dict(trust), nodes


def beta_scores(store: FeedbackStore, forgetting: float) -> dict[str, float]:
    """Beta-posterior expected values, one subject bucket at a time."""
    scores: dict[str, float] = {}
    for subject in store.subjects():
        reports = store.about(subject)
        if not reports:
            continue
        latest = max(feedback.time for feedback in reports)
        alpha = 1.0
        beta = 1.0
        for feedback in reports:
            weight = forgetting ** (latest - feedback.time)
            if feedback.positive:
                alpha += weight
            else:
                beta += weight
        scores[subject] = alpha / (alpha + beta)
    return scores


def average_scores(store: FeedbackStore, default_score: float) -> dict[str, float]:
    """Mean rating per subject, one subject bucket at a time."""
    return {
        subject: mean(
            [feedback.rating for feedback in store.about(subject)], default=default_score
        )
        for subject in store.subjects()
    }


class OracleEigenTrust(EigenTrust):
    def compute_scores(self) -> dict[str, float]:
        scores, self.iterations_used = eigentrust_scores(self)
        return scores


class OraclePowerTrust(PowerTrust):
    def compute_scores(self) -> dict[str, float]:
        scores, self.power_nodes = powertrust_scores(self, self.power_nodes)
        return scores


class OracleBeta(BetaReputation):
    def compute_scores(self) -> dict[str, float]:
        return beta_scores(self.store, self.forgetting)


class OracleAverage(SimpleAverageReputation):
    def compute_scores(self) -> dict[str, float]:
        return average_scores(self.store, self.default_score)
