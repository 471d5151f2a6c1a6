"""The array-backed compute core: dense indices and vectorized kernels.

Every hot numeric path of the library — the EigenTrust/PowerTrust local
trust and power iteration, the Section-3 coupling dynamics and the
per-round draws of the interaction simulator — runs on NumPy arrays (the
Beta and simple-average refreshes are incremental folds in their own
modules).  :class:`PeerIndex` maps peer identifiers to dense integer indices,
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

from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sparse
from scipy.sparse._sparsetools import csr_matvec

from repro import _profiling
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    #: Anything the kernels coerce through ``np.asarray``: an existing
    #: array or a (possibly nested) sequence of numbers.
    ArrayLike = np.ndarray | Sequence[float] | Sequence[Sequence[float]]
    #: A local-trust matrix: a dense array, or CSR-sparse from
    #: :data:`DENSE_TRUST_THRESHOLD` peers up.
    TrustMatrix = np.ndarray | sparse.csr_matrix

#: Spread below which a min-max rescale treats all values as equal.  Kept
#: well above float noise (1e-16-ish) so that near-degenerate spreads do not
#: amplify summation-order rounding into visible score differences.
FLAT_SPREAD = 1e-12

#: Below this peer count the local-trust matrix is built dense, from it up
#: as CSR.  A CSR matvec costs ~15µs of per-call dispatch
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

    def vector_to_dict(self, values: ArrayLike) -> dict[str, float]:
        """Zip a dense vector back into an id-keyed mapping (array order).

        ``tolist`` converts every entry to a Python float in one call,
        instead of one ``float()`` per NumPy scalar.
        """
        return dict(zip(self.ids, np.asarray(values, dtype=float).tolist(), strict=True))

    def dict_to_vector(self, mapping: Mapping[str, float], *, default: float = 0.0) -> np.ndarray:
        return np.array([mapping.get(peer, default) for peer in self.ids], dtype=float)


# -- reputation kernels -----------------------------------------------------


def local_trust_matrix(
    n: int,
    rater_positions: ArrayLike,
    subject_positions: ArrayLike,
    deltas: ArrayLike,
) -> sparse.csr_matrix:
    """Row-normalized local trust ``C`` as CSR, from pairwise feedback
    deltas.

    Raw pairwise totals are clipped at zero, then each row is normalized
    to sum to one; rows without positive evidence stay all-zero (dangling)
    and are handled by :func:`power_iteration`'s restart redistribution.
    The trust graph is a few percent dense at realistic peer counts, so
    sparse storage keeps both the build and every matrix-vector product
    O(nnz).  :meth:`~repro.reputation.gathering.LocalTrustBuilder.matrix`
    builds ``C`` here from :data:`DENSE_TRUST_THRESHOLD` peers up, and
    dense with :func:`normalize_dense_raw` below it.
    """
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


def normalize_dense_raw(raw: np.ndarray) -> np.ndarray:
    """Clip-at-zero and row-normalize a dense signed pairwise-total matrix
    into a new array, leaving ``raw`` untouched (it may be a cached raw
    matrix).

    The tail of every dense local-trust build, so the builder's cached raw
    matrix and the per-report scatter of the rescan oracle
    (``tests/oracles/rescan.py``) produce bitwise-identical ``C``.
    """
    clipped = np.maximum(raw, 0.0)
    row_sums = clipped.sum(axis=1)
    nonzero = row_sums > 0.0
    clipped[nonzero] /= row_sums[nonzero, None]
    return clipped


#: Steps :func:`power_iteration` runs between two convergence checks.  Most
#: refreshes at scenario sizes end at their iteration cap, so one reduction
#: over a block's deltas saves array dispatches on every step; a converged
#: call computes at most ``POWER_ITERATION_BLOCK - 1`` steps it then drops.
POWER_ITERATION_BLOCK = 16

#: One step of the recurrence: reads an iterate, writes the next into ``out``.
_Step = Callable[[np.ndarray, np.ndarray], None]


def _dense_step(matrix: ArrayLike, restart: np.ndarray, restart_weight: float) -> _Step:
    """A step through the folded iteration matrix: one matvec, one add."""
    matrix = np.asarray(matrix, dtype=float)
    dangling = matrix.sum(axis=1) <= 0.0
    iteration_matrix = np.ascontiguousarray(
        (1.0 - restart_weight)
        * (matrix.T + np.outer(restart, dangling.astype(float)))
    )
    restart_mass = restart_weight * restart

    def step(trust: np.ndarray, out: np.ndarray) -> None:
        iteration_matrix.dot(trust, out)
        np.add(out, restart_mass, out)

    return step


def _sparse_step(matrix: TrustMatrix, restart: np.ndarray, restart_weight: float) -> _Step:
    """A CSR step: matvec, dangling redistribution, damping.

    The matvec calls ``csr_matvec``, the kernel ``transposed @ trust``
    dispatches to, into a buffer zeroed each step, and every other
    operation writes into a preallocated temporary; ``take`` gathers the
    dangling entries ``trust[dangling]`` would, in the same order, and
    ``np.add.reduce`` sums them as ``ndarray.sum`` does.  So a step computes
    the same bits as the operator form without its per-call dispatch.
    """
    dangling_rows = np.flatnonzero(np.asarray(matrix.sum(axis=1)).ravel() <= 0.0)
    transposed = matrix.T.tocsr()
    n = restart.size
    indptr, indices, data = transposed.indptr, transposed.indices, transposed.data
    damping = 1.0 - restart_weight
    restart_mass = restart_weight * restart
    updated = np.empty(n)
    gathered = np.empty(dangling_rows.size)
    spread = np.empty(n)

    def step(trust: np.ndarray, out: np.ndarray) -> None:
        updated.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, trust, updated)
        if dangling_rows.size:
            trust.take(dangling_rows, out=gathered)
            np.multiply(float(np.add.reduce(gathered)), restart, spread)
            np.add(updated, spread, updated)
        np.multiply(damping, updated, out)
        np.add(out, restart_mass, out)

    return step


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
    distribution ``p``.  Returns ``(stationary vector, iterations used)``:
    the first iterate whose L1 distance to its predecessor is under
    ``tolerance``, or the ``max_iterations``-th.

    On the sparse path dangling mass is accumulated once per iteration and
    redistributed over ``p`` — the same algebra the loop reference performs
    peer by peer.  On the dense (small-``n``) path the dangling
    redistribution *and* the damping factor are folded into one iteration
    matrix ``M = (1 − a)·(Cᵀ + p·dᵀ)`` up front, so each of the ~100
    iterations per refresh is a single matmul plus one add instead of eight
    dispatched array ops; the re-association shifts results by float
    round-off only, which the publication grid absorbs.

    Both paths run the same blocked loop.  Steps write
    :data:`POWER_ITERATION_BLOCK` iterates at a time into the rows of one
    preallocated buffer, and one reduction then computes the block's L1
    deltas, so convergence is checked once per block rather than once per
    step.  The iterates past the converged one are computed and dropped;
    the vector and count returned are bit-identical to a loop that checks
    after every step (``tests/oracles/rescan.stepwise_power_iteration``).

    Each call adds its steps to the ``power_iteration.steps`` work counter
    and, when the tolerance was never met, one to ``power_iteration.capped``.
    """
    restart = np.asarray(restart, dtype=float)
    if sparse.issparse(matrix):
        step = _sparse_step(matrix, restart, restart_weight)
    else:
        step = _dense_step(matrix, restart, restart_weight)
    block = max(0, min(POWER_ITERATION_BLOCK, max_iterations))
    buffer = np.empty((block + 1, restart.size))
    differences = np.empty((block, restart.size))
    rows = list(buffer)
    buffer[0] = restart
    iterations = 0
    result = 0  # the buffer row holding the iterate to return
    capped = 1
    while iterations < max_iterations:
        steps = min(block, max_iterations - iterations)
        for k in range(steps):
            step(rows[k], rows[k + 1])
        deltas = differences[:steps]
        np.subtract(buffer[1 : steps + 1], buffer[:steps], out=deltas)
        np.abs(deltas, out=deltas)
        below = deltas.sum(axis=1) < tolerance
        if below.any():
            result = int(below.argmax()) + 1
            iterations += result
            capped = 0
            break
        iterations += steps
        buffer[0] = buffer[steps]
    _profiling.add_work("power_iteration.steps", iterations)
    _profiling.add_work("power_iteration.capped", capped)
    return buffer[result].copy(), iterations


def minmax_rescale(values: ArrayLike) -> np.ndarray:
    """Min-max rescale a vector into ``[0, 1]``; flat vectors map to 0.5."""
    values = np.asarray(values, dtype=float)
    low = float(values.min())
    high = float(values.max())
    if high - low < FLAT_SPREAD:
        return np.full_like(values, 0.5)
    return np.clip((values - low) / (high - low), 0.0, 1.0)


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


__all__ = [
    "COUPLING_LAYOUT",
    "DENSE_TRUST_THRESHOLD",
    "FLAT_SPREAD",
    "PeerIndex",
    "POWER_ITERATION_BLOCK",
    "coupling_equilibria",
    "coupling_run",
    "coupling_step",
    "interaction_counts",
    "local_trust_matrix",
    "minmax_rescale",
    "normalize_dense_raw",
    "power_iteration",
]
