"""Experiment E-R1: do the reputation mechanisms distinguish good from bad?

Section 2.2 motivates reputation mechanisms as a way "to help peers to
distinguish good from bad partners which eventually enhances the users'
satisfaction".  The experiment runs every implemented mechanism (plus the
no-reputation baseline) against increasing malicious fractions and reports

* the pairwise ranking accuracy of the final scores against ground truth,
* the composite reputation power (the reputation facet), and
* the steady-state malicious-interaction rate — the fraction of transactions
  still served by dishonest peers, i.e. how much the mechanism actually
  protects users.

Expected shape: every mechanism beats the no-reputation baseline on the
malicious-interaction rate, and the identity-weighted mechanisms
(EigenTrust/PowerTrust) degrade more gracefully as the malicious fraction
grows than the naive average.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.config import SystemSettings
from repro.experiments.reporting import format_table
from repro.experiments.scenario import Scenario, ScenarioConfig

#: Mechanisms evaluated by default ("none" is the baseline).
DEFAULT_MECHANISMS = ("none", "average", "beta", "trustme", "eigentrust", "powertrust")


@dataclass
class MechanismOutcome:
    """One (mechanism, malicious fraction) cell of the E-R1 table."""

    mechanism: str
    malicious_fraction: float
    ranking_accuracy: float
    reputation_power: float
    malicious_interaction_rate: float
    success_rate: float


@dataclass
class ReputationEvalResult:
    outcomes: list[MechanismOutcome]

    def baseline_rate(self, malicious_fraction: float) -> float | None:
        for outcome in self.outcomes:
            if (
                outcome.mechanism == "none"
                and abs(outcome.malicious_fraction - malicious_fraction) < 1e-9
            ):
                return outcome.malicious_interaction_rate
        return None

    def improvement_over_baseline(self) -> dict[str, float]:
        """Mean reduction of the malicious-interaction rate vs the baseline."""
        improvements: dict[str, list[float]] = {}
        for outcome in self.outcomes:
            if outcome.mechanism == "none":
                continue
            baseline = self.baseline_rate(outcome.malicious_fraction)
            if baseline is None:
                continue
            improvements.setdefault(outcome.mechanism, []).append(
                baseline - outcome.malicious_interaction_rate
            )
        return {
            mechanism: sum(values) / len(values)
            for mechanism, values in improvements.items()
            if values
        }


def run(
    *,
    mechanisms: Sequence[str] = DEFAULT_MECHANISMS,
    malicious_fractions: Sequence[float] = (0.1, 0.3, 0.5),
    n_users: int = 50,
    rounds: int = 25,
    seed: int = 0,
) -> ReputationEvalResult:
    """Run E-R1 over the mechanism × malicious-fraction grid."""
    outcomes: list[MechanismOutcome] = []
    for malicious_fraction in malicious_fractions:
        for mechanism in mechanisms:
            settings = SystemSettings(reputation_mechanism=mechanism)
            result = Scenario(
                ScenarioConfig(
                    n_users=n_users,
                    rounds=rounds,
                    seed=seed,
                    malicious_fraction=malicious_fraction,
                    settings=settings,
                )
            ).run()
            outcomes.append(
                MechanismOutcome(
                    mechanism=mechanism,
                    malicious_fraction=malicious_fraction,
                    ranking_accuracy=result.reputation_accuracy,
                    reputation_power=result.facets.reputation,
                    malicious_interaction_rate=result.malicious_interaction_rate,
                    success_rate=result.simulation.metrics.tail_success_rate(),
                )
            )
    return ReputationEvalResult(outcomes=outcomes)


def summarize(result: ReputationEvalResult) -> dict[str, object]:
    """Flatten E-R1 to record metrics (per-cell rates plus baseline deltas)."""
    metrics: dict[str, object] = {"n_outcomes": len(result.outcomes)}
    # repr keeps the key exact: rounded keys would collide for close fractions.
    for outcome in result.outcomes:
        prefix = f"{outcome.mechanism}[{outcome.malicious_fraction!r}]"
        metrics[f"{prefix}.ranking_accuracy"] = outcome.ranking_accuracy
        metrics[f"{prefix}.reputation_power"] = outcome.reputation_power
        metrics[f"{prefix}.malicious_rate"] = outcome.malicious_interaction_rate
        metrics[f"{prefix}.success_rate"] = outcome.success_rate
    for mechanism, improvement in sorted(result.improvement_over_baseline().items()):
        metrics[f"improvement.{mechanism}"] = improvement
    return metrics


def report(result: ReputationEvalResult) -> str:
    rows = [
        (
            outcome.malicious_fraction,
            outcome.mechanism,
            outcome.ranking_accuracy,
            outcome.reputation_power,
            outcome.malicious_interaction_rate,
            outcome.success_rate,
        )
        for outcome in result.outcomes
    ]
    table = format_table(
        [
            "malicious fraction",
            "mechanism",
            "ranking accuracy",
            "reputation power",
            "malicious tx rate",
            "success rate",
        ],
        rows,
        title="E-R1: reputation mechanisms vs adversary mix",
    )
    improvements = result.improvement_over_baseline()
    improvement_table = format_table(
        ["mechanism", "mean reduction of malicious tx rate vs no-reputation"],
        sorted(improvements.items(), key=lambda item: -item[1]),
        title="E-R1: protection added by each mechanism",
    )
    return table + "\n\n" + improvement_table
