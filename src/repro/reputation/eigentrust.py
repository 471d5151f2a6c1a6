"""EigenTrust (Kamvar, Schlosser, Garcia-Molina, WWW 2003).

Each peer *i* derives a normalized local trust vector ``c_i`` from its own
transaction history; the global trust vector ``t`` is the stationary
distribution of the trust Markov chain, damped towards a pre-trusted peer
distribution ``p``:

    t ← (1 − a) · Cᵀ t + a · p

The damping weight ``a`` and the pre-trusted set are the defence against
collusion rings: malicious cliques can inflate each other's local trust, but
the restart mass keeps probability flowing through the pre-trusted peers.

The implementation works directly on the shared
:class:`~repro.reputation.gathering.FeedbackStore` (so it plugs into the same
simulator as every other mechanism) and performs plain power iteration with a
convergence threshold, as in the original centralized formulation.  Scores
are min-max rescaled to ``[0, 1]`` so response policies and the trust facets
can treat every mechanism uniformly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro._util import require_unit_interval
from repro.core import backend as backend_kernels
from repro.core.backend import PeerIndex
from repro.errors import ConfigurationError
from repro.reputation.base import ReputationSystem


class EigenTrust(ReputationSystem):
    """Global reputation via power iteration over normalized local trust."""

    name = "eigentrust"
    information_requirement = 0.9

    def __init__(
        self,
        *,
        pretrusted: Sequence[str] | None = None,
        restart_weight: float = 0.15,
        max_iterations: int = 100,
        tolerance: float = 1e-8,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
    ) -> None:
        super().__init__(
            default_score=default_score,
            max_evidence_per_subject=max_evidence_per_subject,
        )
        self.pretrusted = list(pretrusted or [])
        self.restart_weight = require_unit_interval(restart_weight, "restart_weight")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be at least 1")
        self.max_iterations = int(max_iterations)
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.tolerance = float(tolerance)
        self.iterations_used = 0

    # -- helpers -----------------------------------------------------------

    def _pretrusted_distribution(self, peers: Sequence[str]) -> dict[str, float]:
        """Distribution ``p``: uniform over pre-trusted peers present, else uniform."""
        present = [peer for peer in self.pretrusted if peer in peers]
        if present:
            weight = 1.0 / len(present)
            return {peer: (weight if peer in present else 0.0) for peer in peers}
        uniform = 1.0 / len(peers)
        return {peer: uniform for peer in peers}

    def set_pretrusted(self, peers: Iterable[str]) -> None:
        """Replace the pre-trusted set (used when peers are known up front)."""
        self.pretrusted = list(peers)
        self._dirty = True

    # -- scoring -----------------------------------------------------------

    def compute_scores(self) -> dict[str, float]:
        peers = list(self.store.sorted_participants())
        if not peers:
            return {}
        index = PeerIndex(peers)
        matrix = self.local_trust.matrix(index)
        restart = index.dict_to_vector(self._pretrusted_distribution(peers))
        trust, self.iterations_used = backend_kernels.power_iteration(
            matrix,
            restart,
            restart_weight=self.restart_weight,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
        )
        return index.vector_to_dict(backend_kernels.minmax_rescale(trust))
