"""Rescan twins: the folding mechanisms recomputed from the whole store.

Beta, simple average, EigenTrust and PowerTrust refresh incrementally: each
refresh folds only the reports appended since the previous one.  The twins
below rescan the store's whole report log with NumPy kernels on every
refresh instead, which is what the mechanisms did before the folds existed.
Nothing under ``src/`` calls them.  Tests compare a live mechanism with its
twin bit for bit, or swap the twins in through
``repro.reputation.registry.REPUTATION_FACTORIES`` to rerun a whole pipeline
on the rescan path (:data:`RESCAN_MECHANISMS`).

:func:`stepwise_power_iteration` is the power iteration as it ran before it
checked convergence once per block of steps: one L1 delta per step.
"""

from __future__ import annotations

import numpy as np

from repro.core import backend
from repro.core.backend import PeerIndex
from repro.reputation.average import SimpleAverageReputation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust
from repro.reputation.gathering import FeedbackColumns, LocalTrustBuilder
from repro.reputation.overlay import TrustOverlayNetwork
from repro.reputation.powertrust import PowerTrust


def subject_positions_from_columns(columns: FeedbackColumns, index: PeerIndex) -> np.ndarray:
    """Dense index positions of every report's subject, via interned codes."""
    return index.permutation(columns.id_for_code)[
        np.asarray(columns.subject_codes, dtype=np.intp)
    ]


def mean_scores(subject_positions, ratings, n_subjects: int) -> np.ndarray:
    """Per-subject mean rating over every report."""
    positions = np.asarray(subject_positions, dtype=np.intp)
    ratings = np.asarray(ratings, dtype=float)
    sums = np.bincount(positions, weights=ratings, minlength=n_subjects)
    counts = np.bincount(positions, minlength=n_subjects)
    return sums / np.maximum(counts, 1)


def beta_scores(
    subject_positions, times, positives, *, forgetting: float, n_subjects: int
) -> np.ndarray:
    """Beta-posterior expected values with exponential forgetting.

    ``α = 1 + Σ forgetting^(latest_subject − t)`` over positive reports,
    ``β`` likewise over negative ones.
    """
    positions = np.asarray(subject_positions, dtype=np.intp)
    times = np.asarray(times, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    latest = np.full(n_subjects, -np.inf)
    np.maximum.at(latest, positions, times)
    weights = np.power(float(forgetting), latest[positions] - times)
    alpha = np.ones(n_subjects, dtype=float)
    beta = np.ones(n_subjects, dtype=float)
    np.add.at(alpha, positions[positives], weights[positives])
    np.add.at(beta, positions[~positives], weights[~positives])
    return alpha / (alpha + beta)


def dense_local_trust_matrix(n: int, rater_positions, subject_positions, deltas) -> np.ndarray:
    """Row-normalized local trust ``C`` as a dense array, scattered from
    every report's delta: the dense twin of
    :func:`repro.core.backend.local_trust_matrix`.

    The scatter-add goes through ``bincount`` on flattened ``(rater,
    subject)`` positions; the sums are integers, exact in any order.
    """
    raters = np.asarray(rater_positions, dtype=np.intp)
    subjects = np.asarray(subject_positions, dtype=np.intp)
    deltas = np.asarray(deltas, dtype=float)
    raw = np.bincount(raters * n + subjects, weights=deltas, minlength=n * n)
    return backend.normalize_dense_raw(raw.reshape(n, n))


def local_trust_matrix_from_columns(
    columns: FeedbackColumns, index: PeerIndex
) -> backend.TrustMatrix:
    """Local trust ``C`` from one pass over every report, dense below
    ``DENSE_TRUST_THRESHOLD`` peers and CSR from there up, as
    :meth:`LocalTrustBuilder.matrix` builds it.

    Anonymous reports (rater code -1) and peers outside ``index`` are
    dropped, exactly as the pair ledger ignores them.
    """
    perm = index.permutation(columns.id_for_code)
    rater_codes = np.asarray(columns.rater_codes, dtype=np.intp)
    identified = rater_codes >= 0
    rater_positions = perm[rater_codes[identified]]
    subject_positions = perm[np.asarray(columns.subject_codes, dtype=np.intp)[identified]]
    known = (rater_positions >= 0) & (subject_positions >= 0)
    deltas = np.where(np.asarray(columns.positives, dtype=bool)[identified][known], 1.0, -1.0)
    build = (
        dense_local_trust_matrix
        if len(index) < backend.DENSE_TRUST_THRESHOLD
        else backend.local_trust_matrix
    )
    return build(len(index), rater_positions[known], subject_positions[known], deltas)


def stepwise_power_iteration(
    matrix: backend.TrustMatrix,
    restart: backend.ArrayLike,
    *,
    restart_weight: float,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, int]:
    """:func:`repro.core.backend.power_iteration` checking convergence after
    every step; the blocked kernel must return the same bytes and count."""
    restart = np.asarray(restart, dtype=float)
    trust = restart.copy()
    iterations = 0
    if backend.sparse.issparse(matrix):
        dangling = np.asarray(matrix.sum(axis=1)).ravel() <= 0.0
        transposed = matrix.T.tocsr()
        any_dangling = bool(dangling.any())
        for _ in range(max_iterations):
            iterations += 1
            updated = transposed @ trust
            if any_dangling:
                dangling_mass = float(trust[dangling].sum())
                updated += dangling_mass * restart
            blended = (1.0 - restart_weight) * updated + restart_weight * restart
            delta = float(np.abs(blended - trust).sum())
            trust = blended
            if delta < tolerance:
                break
        return trust, iterations
    matrix = np.asarray(matrix, dtype=float)
    dangling = matrix.sum(axis=1) <= 0.0
    iteration_matrix = np.ascontiguousarray(
        (1.0 - restart_weight)
        * (matrix.T + np.outer(restart, dangling.astype(float)))
    )
    restart_mass = restart_weight * restart
    absolute = np.abs
    for _ in range(max_iterations):
        iterations += 1
        blended = iteration_matrix @ trust
        blended += restart_mass
        delta = float(absolute(blended - trust).sum())
        trust = blended
        if delta < tolerance:
            break
    return trust, iterations


class RescanLocalTrust(LocalTrustBuilder):
    """A builder that folds the pair ledger from the first report on every
    read and builds ``C`` straight from the report log."""

    def _fold(self) -> FeedbackColumns:
        self._pair_watermark = (-1, 0)
        return super()._fold()

    def matrix(self, index: PeerIndex) -> backend.TrustMatrix:
        return local_trust_matrix_from_columns(self._store.columns(), index)


class RescanBeta(BetaReputation):
    def compute_scores(self) -> dict[str, float]:
        subjects = self.store.subjects()
        if not subjects:
            return {}
        # Store subject order, as the fold publishes it.
        index = PeerIndex(subjects)
        columns = self.store.columns()
        values = beta_scores(
            subject_positions_from_columns(columns, index),
            columns.times,
            columns.positives,
            forgetting=self.forgetting,
            n_subjects=len(index),
        )
        return index.vector_to_dict(values)


class RescanAverage(SimpleAverageReputation):
    def compute_scores(self) -> dict[str, float]:
        subjects = self.store.subjects()
        if not subjects:
            return {}
        index = PeerIndex(subjects)
        columns = self.store.columns()
        values = mean_scores(
            subject_positions_from_columns(columns, index), columns.ratings, len(index)
        )
        return index.vector_to_dict(values)


class RescanEigenTrust(EigenTrust):
    def __init__(self, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.local_trust = RescanLocalTrust(self.store)


class RescanPowerTrust(PowerTrust):
    def __init__(self, **kwargs: object) -> None:
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.local_trust = RescanLocalTrust(self.store)
        self.overlay = TrustOverlayNetwork(self.store, builder=self.local_trust)


#: Registry names mapped to their rescan twins, for
#: ``monkeypatch.setitem(REPUTATION_FACTORIES, name, twin)``.
RESCAN_MECHANISMS = {
    "average": RescanAverage,
    "beta": RescanBeta,
    "eigentrust": RescanEigenTrust,
    "powertrust": RescanPowerTrust,
}
