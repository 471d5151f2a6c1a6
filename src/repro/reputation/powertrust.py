"""PowerTrust (Zhou & Hwang, TPDS 2007), adapted to the shared substrate.

PowerTrust aggregates *local* trust scores through a trust overlay network
and exploits the power-law distribution of feedback: a small set of *power
nodes* (the most reputable, most-assessed peers) is selected dynamically and
given extra weight in the global aggregation, which speeds up convergence and
hardens the system against collusion by low-reputation cliques.

The reproduction follows the published structure:

1. build the trust overlay from the feedback store;
2. compute normalized local trust (as EigenTrust does);
3. run the random-walk aggregation ``t ← (1 − α)·Cᵀ t + α·w`` where ``w`` is
   the *look-ahead* restart distribution concentrated on the current power
   nodes;
4. re-select the ``m`` power nodes from the updated scores and iterate until
   the power-node set stabilizes (or the iteration budget is exhausted).
"""

from __future__ import annotations


from repro._util import require_unit_interval
from repro.core import accel
from repro.core import backend as backend_kernels
from repro.core.backend import PeerIndex
from repro.errors import ConfigurationError
from repro.reputation.base import SCORE_DECIMALS, ReputationSystem
from repro.reputation.overlay import TrustOverlayNetwork


def _quantized(trust: dict[str, float]) -> dict[str, float]:
    """Power-node selection input, snapped to the shared score grid.

    Selection sorts by raw trust values; quantizing first keeps the chosen
    power-node set — and hence the whole aggregation — independent of the
    power iteration's summation order (dense vs CSR, or the loop reference).
    """
    return {peer: round(value, SCORE_DECIMALS) for peer, value in trust.items()}


class PowerTrust(ReputationSystem):
    """Power-node weighted global reputation aggregation."""

    name = "powertrust"
    information_requirement = 0.85

    def __init__(
        self,
        *,
        n_power_nodes: int = 3,
        restart_weight: float = 0.15,
        max_iterations: int = 50,
        power_node_rounds: int = 4,
        tolerance: float = 1e-8,
        default_score: float = 0.5,
        max_evidence_per_subject: int | None = None,
    ) -> None:
        super().__init__(
            default_score=default_score,
            max_evidence_per_subject=max_evidence_per_subject,
        )
        if n_power_nodes < 1:
            raise ConfigurationError("n_power_nodes must be at least 1")
        if max_iterations < 1 or power_node_rounds < 1:
            raise ConfigurationError("iteration budgets must be at least 1")
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.n_power_nodes = int(n_power_nodes)
        self.restart_weight = require_unit_interval(restart_weight, "restart_weight")
        self.max_iterations = int(max_iterations)
        self.power_node_rounds = int(power_node_rounds)
        self.tolerance = float(tolerance)
        # The overlay shares this mechanism's local-trust builder so its
        # in-degree centrality reads the same incrementally maintained pair
        # ledger instead of rescanning the store per refresh.
        self.overlay = TrustOverlayNetwork(self.store, builder=self.local_trust)
        self.power_nodes: list[str] = []

    # -- aggregation helpers -------------------------------------------------

    def _restart_distribution(self, peers: list[str], power_nodes: list[str]) -> dict[str, float]:
        """Look-ahead restart mass, concentrated on the current power nodes."""
        present = [peer for peer in power_nodes if peer in peers]
        if not present:
            uniform = 1.0 / len(peers)
            return {peer: uniform for peer in peers}
        weight = 1.0 / len(present)
        return {peer: (weight if peer in present else 0.0) for peer in peers}

    # -- scoring ---------------------------------------------------------------

    def _local_trust_matrix(self, index: PeerIndex) -> backend_kernels.TrustMatrix:
        """Row-normalized ``C`` from the incremental dense raw matrix /
        pair ledger (or a cold store rescan when incremental refresh is
        off) — bitwise identical either way, see
        :meth:`EigenTrust._local_trust_matrix`."""
        if (
            accel.flags().incremental_refresh
            and len(index) < backend_kernels.DENSE_TRUST_THRESHOLD
        ):
            raw = self.local_trust.dense_raw_totals(index.position_map, len(index))
            return backend_kernels.normalize_dense_raw(raw)
        return backend_kernels.local_trust_matrix_from_columns(self.store.columns(), index)

    def compute_scores(self) -> dict[str, float]:
        peers = list(self.store.sorted_participants())
        if not peers:
            return {}
        # Bootstrap from the previous power nodes (uniform restart on the
        # first refresh), then alternate aggregation and power-node
        # re-selection until the power-node set stabilizes.
        index = PeerIndex(peers)
        matrix = self._local_trust_matrix(index)

        power_nodes: list[str] = list(self.power_nodes)
        trust_map: dict[str, float] = {}
        trust = None
        for _ in range(self.power_node_rounds):
            restart = index.dict_to_vector(self._restart_distribution(peers, power_nodes))
            trust, _ = backend_kernels.power_iteration(
                matrix,
                restart,
                restart_weight=self.restart_weight,
                max_iterations=self.max_iterations,
                tolerance=self.tolerance,
            )
            trust_map = index.vector_to_dict(trust)
            new_power_nodes = self.overlay.select_power_nodes(
                _quantized(trust_map), self.n_power_nodes
            )
            if new_power_nodes == power_nodes:
                break
            power_nodes = new_power_nodes
        self.power_nodes = power_nodes

        return index.vector_to_dict(backend_kernels.minmax_rescale(trust))

    def reset(self) -> None:
        """Drop evidence, cached scores *and* the sticky power-node set.

        The power nodes are derived from evidence, so letting them survive
        a reset would warm-start the next aggregation from state the store
        no longer supports.
        """
        super().reset()
        self.power_nodes = []
