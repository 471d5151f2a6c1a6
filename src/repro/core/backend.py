"""The array-backed compute core: dense indices and vectorized kernels.

Every hot numeric path of the library — the EigenTrust/PowerTrust power
iteration, the Beta/average score refresh, the Section-3 coupling dynamics
and the per-round draws of the interaction simulator — runs on NumPy
arrays.  :class:`PeerIndex` maps peer identifiers to dense integer indices,
and the kernels below express the mechanisms' arithmetic as matrix-vector
products and batched elementwise updates.  The pure-Python loops these
kernels replaced are kept under ``tests/oracles`` as reference
implementations that the property tests compare against.

Numerical contract
------------------
The kernels compute the same quantities as the loop references with the
same operation *structure* but not always the same floating-point *order*
(BLAS matrix products re-associate sums), so raw results agree only to
~1e-12.  :meth:`repro.reputation.base.ReputationSystem.refresh` publishes
scores quantized to a coarse 1e-9 grid, which absorbs that noise.  The
coupling kernels mirror :meth:`repro.core.coupling.CouplingDynamics.step`
term by term and *are* bitwise identical to it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

try:
    import scipy.sparse as sparse
except ImportError:  # pragma: no cover - scipy is an optional accelerator
    sparse = None  # type: ignore[assignment]

if TYPE_CHECKING:
    from repro.reputation.gathering import FeedbackColumns

    #: Anything the kernels coerce through ``np.asarray``: an existing
    #: array or a (possibly nested) sequence of numbers.
    ArrayLike = np.ndarray | Sequence[float] | Sequence[Sequence[float]]
    #: A local-trust matrix: dense array, or CSR-sparse when scipy is present.
    TrustMatrix = np.ndarray | sparse.csr_matrix

#: Whether sparse kernels are available.  The local-trust matrix is a
#: percent-dense object at realistic peer counts, so CSR storage turns the
#: power iteration from O(n^2) memory traffic into O(nnz); without scipy the
#: kernels silently use dense arrays (same results, slower).
HAS_SCIPY = sparse is not None

#: Spread below which a min-max rescale treats all values as equal.  Kept
#: well above float noise (1e-16-ish) so that near-degenerate spreads do not
#: amplify summation-order rounding into visible score differences.
FLAT_SPREAD = 1e-12

#: Below this peer count the local-trust matrix is built dense even when
#: scipy is available.  A CSR matvec costs ~15µs of per-call dispatch
#: overhead regardless of size, which dominates the power iteration at the
#: population sizes the scenario experiments run (tens of peers, ~100
#: iterations per refresh); a dense matvec at n=128 is ~2µs.  The crossover
#: where sparsity wins back the memory traffic sits well above this.
DENSE_TRUST_THRESHOLD = 128


class PeerIndex:
    """A bijection between peer identifiers and dense array positions.

    The id order given at construction *is* the array order, so callers
    control (and can keep deterministic) the layout of every derived vector
    and matrix.
    """

    __slots__ = ("ids", "_positions")

    def __init__(self, ids: Sequence[str]) -> None:
        self.ids: list[str] = list(ids)
        self._positions: dict[str, int] = {peer: position for position, peer in enumerate(self.ids)}
        if len(self._positions) != len(self.ids):
            raise ConfigurationError("peer ids must be unique")

    @classmethod
    def from_ids(cls, ids: Iterable[str], *, sort: bool = True) -> PeerIndex:
        return cls(sorted(ids) if sort else list(ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._positions

    def position(self, peer_id: str) -> int:
        try:
            return self._positions[peer_id]
        except KeyError:
            raise ConfigurationError(f"unknown peer id {peer_id!r}") from None

    @property
    def position_map(self) -> dict[str, int]:
        """The live id→position mapping (insertion order = array order);
        treat as read-only."""
        return self._positions

    def positions(self, peer_ids: Iterable[str]) -> list[int]:
        lookup = self._positions
        return [lookup[peer_id] for peer_id in peer_ids]

    def permutation(self, ids: Sequence[str]) -> np.ndarray:
        """Dense positions of ``ids`` as an array; unknown ids map to -1.

        Pairs with interned code columns: translating a million-report code
        column costs one permutation build over the (small) id universe plus
        one vectorized gather, instead of a dict lookup per report.
        """
        lookup = self._positions
        return np.fromiter(
            (lookup.get(peer_id, -1) for peer_id in ids),
            dtype=np.intp,
            count=len(ids),
        )

    def vector_to_dict(self, values: Iterable[float]) -> dict[str, float]:
        """Zip a dense vector back into an id-keyed mapping (array order)."""
        return {peer: float(value) for peer, value in zip(self.ids, values, strict=True)}

    def dict_to_vector(self, mapping: Mapping[str, float], *, default: float = 0.0) -> np.ndarray:
        return np.array([mapping.get(peer, default) for peer in self.ids], dtype=float)


# -- reputation kernels -----------------------------------------------------


def local_trust_matrix(
    n: int,
    rater_positions: ArrayLike,
    subject_positions: ArrayLike,
    deltas: ArrayLike,
) -> TrustMatrix:
    """Row-normalized local trust ``C`` from pairwise feedback deltas.

    Mirrors :meth:`LocalTrustBuilder.normalized_local_trust`: raw pairwise
    totals are clipped at zero, then each row is normalized to sum to one;
    rows without positive evidence stay all-zero (dangling) and are handled
    by :func:`power_iteration`'s restart redistribution.

    Returns a CSR matrix when scipy is available and the population is
    large (the trust graph is a few percent dense at realistic peer counts,
    so sparse storage keeps both the build and every matrix-vector product
    O(nnz)); below :data:`DENSE_TRUST_THRESHOLD` peers — or without scipy —
    a dense array via :func:`dense_local_trust_matrix`, where the fixed CSR
    dispatch overhead would dominate.  Same values either way.
    """
    if sparse is None or n < DENSE_TRUST_THRESHOLD:
        return dense_local_trust_matrix(n, rater_positions, subject_positions, deltas)
    rater_positions = np.asarray(rater_positions, dtype=np.intp)
    subject_positions = np.asarray(subject_positions, dtype=np.intp)
    deltas = np.asarray(deltas, dtype=float)
    raw = sparse.coo_matrix(
        (deltas, (rater_positions, subject_positions)), shape=(n, n)
    ).tocsr()  # tocsr() sums duplicate (rater, subject) entries
    np.maximum(raw.data, 0.0, out=raw.data)
    raw.eliminate_zeros()
    row_sums = np.asarray(raw.sum(axis=1)).ravel()
    scale = np.where(row_sums > 0.0, row_sums, 1.0)
    raw.data /= np.repeat(scale, np.diff(raw.indptr))
    return raw


def dense_local_trust_matrix(
    n: int,
    rater_positions: ArrayLike,
    subject_positions: ArrayLike,
    deltas: ArrayLike,
) -> np.ndarray:
    """The dense fallback of :func:`local_trust_matrix` (no scipy needed).

    The scatter-add goes through ``bincount`` on flattened ``(rater,
    subject)`` positions, which is far faster than ``np.add.at``.
    """
    rater_positions = np.asarray(rater_positions, dtype=np.intp)
    if rater_positions.size:
        subject_positions = np.asarray(subject_positions, dtype=np.intp)
        flat = rater_positions * n + subject_positions
        raw = np.bincount(
            flat, weights=np.asarray(deltas, dtype=float), minlength=n * n
        ).reshape(n, n)
    else:
        raw = np.zeros((n, n), dtype=float)
    return normalize_dense_raw(raw, copy=False)


def normalize_dense_raw(raw: np.ndarray, *, copy: bool = True) -> np.ndarray:
    """Clip-at-zero and row-normalize a dense signed pairwise-total matrix.

    The shared tail of every dense local-trust build — per-report scatter,
    pair-ledger scatter, or the incrementally maintained raw matrix — so
    all of them produce bitwise-identical ``C``.  ``copy=True`` leaves the
    input untouched (required for cached raw matrices).
    """
    if copy:
        clipped = np.maximum(raw, 0.0)
    else:
        clipped = raw
        np.maximum(clipped, 0.0, out=clipped)
    row_sums = clipped.sum(axis=1)
    nonzero = row_sums > 0.0
    clipped[nonzero] /= row_sums[nonzero, None]
    return clipped


def local_trust_matrix_from_columns(columns: FeedbackColumns, index: PeerIndex) -> TrustMatrix:
    """Dense local trust straight from interned feedback columns.

    ``columns`` is a :class:`repro.reputation.gathering.FeedbackColumns`;
    anonymous reports (rater code -1) and peers outside ``index`` are
    dropped, exactly as the dict-based builder ignores them.
    """
    perm = index.permutation(columns.id_for_code)
    rater_codes = np.asarray(columns.rater_codes, dtype=np.intp)
    identified = rater_codes >= 0
    rater_positions = perm[rater_codes[identified]]
    subject_positions = perm[np.asarray(columns.subject_codes, dtype=np.intp)[identified]]
    known = (rater_positions >= 0) & (subject_positions >= 0)
    deltas = np.where(np.asarray(columns.positives, dtype=bool)[identified][known], 1.0, -1.0)
    return local_trust_matrix(len(index), rater_positions[known], subject_positions[known], deltas)


def power_iteration(
    matrix: TrustMatrix,
    restart: ArrayLike,
    *,
    restart_weight: float,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, int]:
    """Damped power iteration ``t ← (1 − a)·(Cᵀ t + dangling·p) + a·p``.

    ``matrix`` is the row-stochastic local trust ``C`` (all-zero rows are
    dangling peers), dense or CSR-sparse; ``restart`` is the restart
    distribution ``p``.  Returns ``(stationary vector, iterations used)``.

    On the sparse path dangling mass is accumulated once per iteration and
    redistributed over ``p`` — the same algebra the loop reference performs
    peer by peer.  On the dense (small-``n``) path the dangling
    redistribution *and* the damping factor are folded into one iteration
    matrix ``M = (1 − a)·(Cᵀ + p·dᵀ)`` up front, so each of the ~100
    iterations per refresh is a single matmul plus one add instead of eight
    dispatched array ops; the re-association shifts results by float
    round-off only, which the publication grid absorbs.
    """
    restart = np.asarray(restart, dtype=float)
    trust = restart.copy()
    iterations = 0
    if sparse is not None and sparse.issparse(matrix):
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


def minmax_rescale(values: ArrayLike) -> np.ndarray:
    """Min-max rescale a vector into ``[0, 1]``; flat vectors map to 0.5."""
    values = np.asarray(values, dtype=float)
    low = float(values.min())
    high = float(values.max())
    if high - low < FLAT_SPREAD:
        return np.full_like(values, 0.5)
    return np.clip((values - low) / (high - low), 0.0, 1.0)


def subject_positions_from_columns(columns: FeedbackColumns, index: PeerIndex) -> np.ndarray:
    """Dense index positions of every report's subject, via interned codes.

    The shared preamble of the subject-keyed score kernels (Beta, simple
    average): one permutation over the columns' id universe plus one gather
    over the code column.
    """
    return index.permutation(columns.id_for_code)[
        np.asarray(columns.subject_codes, dtype=np.intp)
    ]


def mean_scores(subject_positions: ArrayLike, ratings: ArrayLike, n_subjects: int) -> np.ndarray:
    """Per-subject mean rating (the simple-average mechanism's kernel)."""
    positions = np.asarray(subject_positions, dtype=np.intp)
    ratings = np.asarray(ratings, dtype=float)
    sums = np.bincount(positions, weights=ratings, minlength=n_subjects)
    counts = np.bincount(positions, minlength=n_subjects)
    return sums / np.maximum(counts, 1)


def beta_scores(
    subject_positions: ArrayLike,
    times: ArrayLike,
    positives: ArrayLike,
    *,
    forgetting: float,
    n_subjects: int,
) -> np.ndarray:
    """Beta-posterior expected values with exponential forgetting.

    ``α = 1 + Σ forgetting^(latest_subject − t)`` over positive reports,
    ``β`` likewise over negative ones — the cold-rescan score of
    :class:`~repro.reputation.beta.BetaReputation`.
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


# -- coupling kernels -------------------------------------------------------

#: Column layout of coupling state arrays; must match
#: :data:`repro.core.coupling.STATE_VARIABLES`.
COUPLING_LAYOUT = (
    "trust",
    "satisfaction",
    "reputation_efficiency",
    "disclosure",
    "honest_contribution",
    "privacy_satisfaction",
)


def coupling_step(
    state: ArrayLike,
    *,
    sharing_level: float,
    mechanism_power: float,
    policy_respect: float,
    trustworthy_fraction: float,
    damping: float,
    privacy_weight: float,
    reputation_weight: float,
    satisfaction_weight: float,
) -> np.ndarray:
    """One damped update of the Section-3 couplings on a ``(..., 6)`` array.

    The expressions mirror :meth:`CouplingDynamics.step` term by term (same
    operand order), so a single-state step is bitwise identical to it; the
    payoff is that the leading axes batch arbitrarily many states through
    one pass.
    """
    state = np.asarray(state, dtype=float)
    trust = state[..., 0]
    satisfaction = state[..., 1]
    reputation_efficiency = state[..., 2]
    disclosure = state[..., 3]
    honest_contribution = state[..., 4]
    privacy_satisfaction = state[..., 5]

    privacy_target = np.clip(policy_respect * (1.0 - 0.6 * disclosure), 0.0, 1.0)
    reputation_target = np.clip(
        mechanism_power * (disclosure * (0.4 + 0.6 * honest_contribution)),
        0.0,
        1.0,
    )
    satisfaction_target = np.clip(
        0.35 * trust + 0.35 * reputation_efficiency + 0.30 * privacy_satisfaction,
        0.0,
        1.0,
    )
    effective_reputation = reputation_efficiency * trustworthy_fraction
    total = privacy_weight + reputation_weight + satisfaction_weight
    trust_target = np.clip(
        (
            privacy_weight * privacy_satisfaction
            + reputation_weight * effective_reputation
            + satisfaction_weight * satisfaction
        )
        / total,
        0.0,
        1.0,
    )
    disclosure_target = np.clip(sharing_level * (0.2 + 0.8 * trust), 0.0, 1.0)
    honest_target = np.clip(0.3 + 0.7 * trust, 0.0, 1.0)

    targets = np.stack(
        [
            trust_target,
            satisfaction_target,
            reputation_target,
            disclosure_target,
            honest_target,
            privacy_target,
        ],
        axis=-1,
    )
    return np.clip((1.0 - damping) * state + damping * targets, 0.0, 1.0)


def coupling_run(
    initial: ArrayLike,
    *,
    steps: int,
    tolerance: float,
    **params: float,
) -> np.ndarray:
    """Iterate one coupling state to convergence; returns the ``(T, 6)`` path."""
    state = np.asarray(initial, dtype=float)
    trajectory = [state]
    for _ in range(steps):
        next_state = coupling_step(state, **params)
        trajectory.append(next_state)
        if float(np.max(np.abs(next_state - state))) < tolerance:
            break
        state = next_state
    return np.stack(trajectory, axis=0)


def coupling_equilibria(
    initials: ArrayLike,
    *,
    steps: int,
    tolerance: float,
    **params: float,
) -> np.ndarray:
    """Evolve a batch of states to their per-trajectory fixed points.

    Equivalent to calling :func:`coupling_run` on each row and keeping the
    final state, but all still-active trajectories advance through one
    batched :func:`coupling_step` per iteration.  Converged rows freeze and
    drop out of the batch (``params`` must therefore be scalars, which is
    what :class:`CouplingDynamics` provides), so each row's result matches
    its standalone trajectory exactly and a lone straggler does not keep
    paying for the whole batch.
    """
    state = np.array(initials, dtype=float, copy=True)
    if state.ndim != 2 or state.shape[1] != len(COUPLING_LAYOUT):
        raise ConfigurationError(f"initials must have shape (m, {len(COUPLING_LAYOUT)})")
    active = np.arange(state.shape[0])
    for _ in range(steps):
        if not active.size:
            break
        subset = state[active]
        stepped = coupling_step(subset, **params)
        state[active] = stepped
        moved = np.max(np.abs(stepped - subset), axis=-1)
        active = active[moved >= tolerance]
    return state


# -- simulation kernels -----------------------------------------------------


def interaction_counts(
    activities: ArrayLike, interactions_per_peer: float, draws: ArrayLike
) -> np.ndarray:
    """Per-peer interaction counts from one uniform draw per peer.

    Mirrors the scalar rule ``int(e) + (draw < e - int(e))`` with
    ``e = activity · interactions_per_peer``; the comparison and floor are
    bitwise identical to the per-peer Python arithmetic.
    """
    expected = np.asarray(activities, dtype=float) * interactions_per_peer
    base = np.floor(expected)
    bonus = np.asarray(draws, dtype=float) < (expected - base)
    return (base + bonus).astype(np.intp)


def lexicographic_argmax(primary: ArrayLike, tiebreak: ArrayLike) -> int:
    """Index of the maximum by ``(primary, tiebreak)`` — vectorized twin of
    sorting score/jitter pairs descending and taking the head."""
    order = np.lexsort(
        (np.asarray(tiebreak, dtype=float), np.asarray(primary, dtype=float))
    )
    return int(order[-1])


__all__ = [
    "COUPLING_LAYOUT",
    "DENSE_TRUST_THRESHOLD",
    "FLAT_SPREAD",
    "PeerIndex",
    "beta_scores",
    "HAS_SCIPY",
    "coupling_equilibria",
    "coupling_run",
    "coupling_step",
    "dense_local_trust_matrix",
    "interaction_counts",
    "lexicographic_argmax",
    "local_trust_matrix",
    "local_trust_matrix_from_columns",
    "mean_scores",
    "minmax_rescale",
    "normalize_dense_raw",
    "power_iteration",
    "subject_positions_from_columns",
]
