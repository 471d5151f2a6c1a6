"""Attack-resistance metrics: what a robustness scenario measures.

A :class:`ScenarioTrace` rides the engine's round hooks and snapshots, every
round, how well the reputation mechanism is holding up: the good-vs-bad
score separation, the rank correlation of published scores against
ground-truth service quality, and the round's malicious-transaction rate.
:func:`evaluate_trace` then condenses the per-round series against the
campaign's attack window into the headline robustness numbers:

* **separation** before / during / after the attack — the gap the attack
  tries to collapse;
* **time-to-detect** — rounds after the attack starts until the mechanism
  separates the populations by at least the detection threshold;
* **time-to-recover** — rounds after the attack ends until separation is
  back to the pre-attack baseline (scaled by the recovery fraction);
* malicious-transaction rates during and after the attack — what the users
  actually experienced.

Everything is pure Python over the engine's quantized scores, so robustness
records are byte-identical across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

from repro._util import mean
from repro.errors import CheckpointError, ConfigurationError
from repro.reputation.accuracy import score_separation, spearman_rank_correlation
from repro.simulation.engine import InteractionSimulator

#: A peer never detected / never recovered within the run.
NEVER = -1


@dataclass(frozen=True)
class RoundObservation:
    """One round's robustness snapshot.

    ``rank_correlation`` is ``None`` when the trace runs in its default
    ``correlation="final"`` mode, where only the last round's correlation —
    the one the robustness metrics report — is computed (rank correlation
    is the most expensive per-round statistic, and intermediate values were
    never consumed).  Construct the trace with ``correlation="all"`` to get
    the per-round series.
    """

    round_index: int
    honest_mean: float
    attacker_mean: float
    separation: float
    rank_correlation: float | None
    malicious_rate: float
    online_peers: int


class ScenarioTrace:
    """Round hook recording a :class:`RoundObservation` per round.

    Scores are read under each peer's *current* identity (what provider
    selection actually sees); peers the mechanism has no evidence about —
    including freshly whitewashed identities — count at the mechanism's
    default score, so an identity reset shows up as the attacker mean
    snapping back toward the default.
    """

    def __init__(self, *, correlation: str = "final") -> None:
        if correlation not in ("final", "all"):
            raise ConfigurationError(
                f"correlation must be 'final' or 'all', got {correlation!r}"
            )
        self.observations: list[RoundObservation] = []
        self._correlation_mode = correlation
        #: (scores, quality truth) of the latest round, for the lazy final
        #: correlation; replaced wholesale every round, never mutated.
        self._final_inputs: tuple[dict[str, float], dict[str, float]] | None = None
        self._final_correlation: tuple[int, float] | None = None

    def on_round_start(self, simulator: InteractionSimulator, round_index: int) -> None:
        """Traces only observe; nothing happens at round start."""

    def on_round_end(
        self, simulator: InteractionSimulator, round_index: int, scores: dict[str, float]
    ) -> None:
        reputation = simulator.reputation
        default = getattr(reputation, "default_score", 0.5) if reputation else 0.5
        current_scores: dict[str, float] = {}
        honesty_truth: dict[str, float] = {}
        quality_truth: dict[str, float] = {}
        honest_scores: list[float] = []
        attacker_scores: list[float] = []
        for peer in simulator.directory.peers():
            score = scores.get(peer.peer_id, default)
            current_scores[peer.base_id] = score
            honesty_truth[peer.base_id] = peer.user.honesty
            # Ground-truth service quality: competence delivered at the
            # honesty rate — the quantity a consistent mechanism should rank.
            quality_truth[peer.base_id] = peer.user.honesty * peer.user.competence
            if peer.user.is_honest:
                honest_scores.append(score)
            else:
                attacker_scores.append(score)
        honest_mean = mean(honest_scores) if honest_scores else 0.0
        attacker_mean = mean(attacker_scores) if attacker_scores else 0.0
        # score_separation classifies by honesty >= 0.5, the same split as
        # User.is_honest, so it equals honest_mean - attacker_mean whenever
        # both classes are populated.
        separation = score_separation(current_scores, honesty_truth)
        if self._correlation_mode == "all":
            rank_correlation: float | None = spearman_rank_correlation(
                current_scores, quality_truth
            )
        else:
            rank_correlation = None
            self._final_inputs = (current_scores, quality_truth)
        last_round = simulator.metrics.rounds[-1]
        self.observations.append(
            RoundObservation(
                round_index=round_index,
                honest_mean=honest_mean,
                attacker_mean=attacker_mean,
                separation=separation,
                rank_correlation=rank_correlation,
                malicious_rate=last_round.malicious_rate,
                online_peers=last_round.online_peers,
            )
        )

    def final_rank_correlation(self) -> float:
        """Rank correlation of the last recorded round (0.0 with no rounds).

        In ``correlation="final"`` mode this is where the (single) Spearman
        computation happens — identical input, identical value to what the
        per-round mode records for the last round.
        """
        if not self.observations:
            return 0.0
        final = self.observations[-1]
        if final.rank_correlation is not None:
            return final.rank_correlation
        if self._final_inputs is None:  # pragma: no cover - defensive
            return 0.0
        cached = self._final_correlation
        if cached is not None and cached[0] == final.round_index:
            return cached[1]
        value = spearman_rank_correlation(*self._final_inputs)
        self._final_correlation = (final.round_index, value)
        return value

    def separation_series(self) -> list[float]:
        return [observation.separation for observation in self.observations]

    # -- checkpoint protocol ------------------------------------------------

    def checkpoint_state(self) -> dict[str, object]:
        """Everything the trace accumulated (observations are frozen and
        picklable; the lazy-correlation inputs are plain dicts)."""
        return {
            "observations": list(self.observations),
            "correlation_mode": self._correlation_mode,
            "final_inputs": self._final_inputs,
            "final_correlation": self._final_correlation,
        }

    def restore_checkpoint_state(
        self, state: dict[str, object], simulator: InteractionSimulator
    ) -> None:
        observations = state.get("observations")
        mode = state.get("correlation_mode")
        if not isinstance(observations, list) or mode not in ("final", "all"):
            raise CheckpointError("malformed scenario-trace checkpoint state")
        self.observations = observations
        self._correlation_mode = mode
        self._final_inputs = cast(
            "tuple[dict[str, float], dict[str, float]] | None", state.get("final_inputs")
        )
        self._final_correlation = cast(
            "tuple[int, float] | None", state.get("final_correlation")
        )


@dataclass(frozen=True)
class RobustnessMetrics:
    """The headline attack-resistance numbers of one scenario run."""

    baseline_separation: float
    attack_separation: float
    post_separation: float
    final_separation: float
    final_rank_correlation: float
    time_to_detect: int
    time_to_recover: int
    attack_malicious_rate: float
    post_malicious_rate: float

    @property
    def detected(self) -> bool:
        return self.time_to_detect != NEVER

    @property
    def recovered(self) -> bool:
        return self.time_to_recover != NEVER


def evaluate_trace(
    observations: list[RoundObservation],
    window: tuple[int, int],
    *,
    detect_threshold: float = 0.1,
    recovery_fraction: float = 0.8,
    final_rank_correlation: float | None = None,
) -> RobustnessMetrics:
    """Condense a per-round trace into :class:`RobustnessMetrics`.

    ``window`` is the campaign's half-open ``[start, end)`` attack interval.
    Detection is the first round at or after the attack start where
    separation reaches ``detect_threshold``; recovery is the first round at
    or after the attack end where separation is back to
    ``recovery_fraction`` of the pre-attack baseline (never below the
    detection threshold, so a mechanism with no pre-attack signal cannot
    "recover" trivially).  Both are :data:`NEVER` (-1) when the run ends
    first.

    ``final_rank_correlation`` supplies the last round's correlation when
    the trace ran in lazy ``correlation="final"`` mode (pass
    ``trace.final_rank_correlation()``); omitted, it is read off the final
    observation (0.0 when that was not computed).
    """
    if not observations:
        return RobustnessMetrics(
            baseline_separation=0.0,
            attack_separation=0.0,
            post_separation=0.0,
            final_separation=0.0,
            final_rank_correlation=0.0,
            time_to_detect=NEVER,
            time_to_recover=NEVER,
            attack_malicious_rate=0.0,
            post_malicious_rate=0.0,
        )
    start, end = window
    pre = [o for o in observations if o.round_index < start]
    attack = [o for o in observations if start <= o.round_index < end]
    post = [o for o in observations if o.round_index >= end]
    baseline = mean([o.separation for o in pre]) if pre else 0.0

    time_to_detect = NEVER
    for observation in observations:
        if observation.round_index >= start and observation.separation >= detect_threshold:
            time_to_detect = observation.round_index - start
            break

    recovery_target = max(detect_threshold, recovery_fraction * baseline)
    time_to_recover = NEVER
    for observation in post:
        if observation.separation >= recovery_target:
            time_to_recover = observation.round_index - end
            break

    final = observations[-1]
    if final_rank_correlation is None:
        final_rank_correlation = (
            final.rank_correlation if final.rank_correlation is not None else 0.0
        )
    return RobustnessMetrics(
        baseline_separation=baseline,
        attack_separation=mean([o.separation for o in attack]) if attack else 0.0,
        post_separation=mean([o.separation for o in post]) if post else 0.0,
        final_separation=final.separation,
        final_rank_correlation=final_rank_correlation,
        time_to_detect=time_to_detect,
        time_to_recover=time_to_recover,
        attack_malicious_rate=mean([o.malicious_rate for o in attack]) if attack else 0.0,
        post_malicious_rate=mean([o.malicious_rate for o in post]) if post else 0.0,
    )
