"""Experiments E-A1 and E-A2: design-choice ablations.

* **E-A1 — aggregator ablation.**  The paper asks for "a generic metric"; we
  compare the aggregator family (weighted, geometric, minimum, OWA) on the
  same tradeoff sweep: achieved maximal trust, the sharing level at which it
  is achieved, whether the optimum lies inside Area A, and how sharply the
  metric penalizes an unbalanced facet profile.

* **E-A2 — anonymous versus identified feedback.**  The paper cites
  reputation systems for anonymous networks as the privacy/reputation
  compromise; the ablation runs the same scenario with and without the
  anonymizing feedback channel and reports the reputation-accuracy cost and
  the privacy-exposure gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SystemSettings
from repro.core.facets import FacetScores
from repro.core.metric import Aggregator, CompositeTrustMetric
from repro.core.tradeoff import SettingsExplorer
from repro.experiments.reporting import format_table
from repro.experiments.scenario import Scenario, ScenarioConfig


@dataclass
class AggregatorOutcome:
    aggregator: str
    best_trust: float
    best_sharing_level: float
    best_in_area_a: bool
    unbalanced_penalty: float


@dataclass
class AnonymityOutcome:
    mode: str
    reputation_accuracy: float
    reputation_facet: float
    privacy_facet: float
    mean_exposure_records: float
    trust: float


@dataclass
class AblationResult:
    aggregators: list[AggregatorOutcome]
    anonymity: list[AnonymityOutcome]

    def aggregator_by_name(self) -> dict[str, AggregatorOutcome]:
        return {outcome.aggregator: outcome for outcome in self.aggregators}

    def anonymity_by_mode(self) -> dict[str, AnonymityOutcome]:
        return {outcome.mode: outcome for outcome in self.anonymity}


def run_aggregator_ablation() -> list[AggregatorOutcome]:
    """E-A1: compare aggregators on the analytic tradeoff sweep."""
    outcomes = []
    balanced = FacetScores(privacy=0.6, reputation=0.6, satisfaction=0.6)
    unbalanced = FacetScores(privacy=0.1, reputation=0.85, satisfaction=0.85)
    for aggregator in Aggregator:
        explorer = SettingsExplorer(aggregator=aggregator)
        points = explorer.sweep_sharing_levels(resolution=41)
        best = explorer.best(points)
        metric = CompositeTrustMetric(aggregator=aggregator)
        penalty = metric.trust(balanced) - metric.trust(unbalanced)
        outcomes.append(
            AggregatorOutcome(
                aggregator=aggregator.value,
                best_trust=best.trust,
                best_sharing_level=best.sharing_level,
                best_in_area_a=best.in_area_a,
                unbalanced_penalty=penalty,
            )
        )
    return outcomes


#: (label, mechanism, anonymous?) modes compared by E-A2.  EigenTrust needs
#: rater identities, so the anonymous channel collapses it; Beta only counts
#: ratings, so it degrades gracefully — together they bound the accuracy cost
#: of anonymity.
ANONYMITY_MODES = (
    ("identified-eigentrust", "eigentrust", False),
    ("anonymous-eigentrust", "eigentrust", True),
    ("identified-beta", "beta", False),
    ("anonymous-beta", "beta", True),
)


def run_anonymity_ablation(
    *, n_users: int = 40, rounds: int = 20, seed: int = 0
) -> list[AnonymityOutcome]:
    """E-A2: identified versus anonymous feedback on the same scenario."""
    outcomes = []
    for label, mechanism, anonymous in ANONYMITY_MODES:
        settings = SystemSettings(reputation_mechanism=mechanism, anonymous_feedback=anonymous)
        result = Scenario(
            ScenarioConfig(
                n_users=n_users,
                rounds=rounds,
                seed=seed,
                malicious_fraction=0.3,
                settings=settings,
            )
        ).run()
        owners = result.ledger.owners()
        mean_records = (
            sum(len(result.ledger.by_owner(owner)) for owner in owners) / len(owners)
            if owners
            else 0.0
        )
        outcomes.append(
            AnonymityOutcome(
                mode=label,
                reputation_accuracy=result.reputation_accuracy,
                reputation_facet=result.facets.reputation,
                privacy_facet=result.facets.privacy,
                mean_exposure_records=mean_records,
                trust=result.trust.global_trust,
            )
        )
    return outcomes


def run(
    *, n_users: int = 40, rounds: int = 20, seed: int = 0
) -> AblationResult:
    return AblationResult(
        aggregators=run_aggregator_ablation(),
        anonymity=run_anonymity_ablation(n_users=n_users, rounds=rounds, seed=seed),
    )


def summarize(result: AblationResult) -> dict[str, object]:
    """Flatten E-A1/E-A2 to record metrics (per-variant key numbers)."""
    metrics: dict[str, object] = {
        "n_aggregators": len(result.aggregators),
        "n_anonymity_modes": len(result.anonymity),
    }
    for outcome in result.aggregators:
        prefix = f"aggregator.{outcome.aggregator}"
        metrics[f"{prefix}.best_trust"] = outcome.best_trust
        metrics[f"{prefix}.best_sharing_level"] = outcome.best_sharing_level
        metrics[f"{prefix}.best_in_area_a"] = outcome.best_in_area_a
        metrics[f"{prefix}.unbalanced_penalty"] = outcome.unbalanced_penalty
    for outcome in result.anonymity:
        prefix = f"anonymity.{outcome.mode}"
        metrics[f"{prefix}.reputation_accuracy"] = outcome.reputation_accuracy
        metrics[f"{prefix}.reputation_facet"] = outcome.reputation_facet
        metrics[f"{prefix}.privacy_facet"] = outcome.privacy_facet
        metrics[f"{prefix}.trust"] = outcome.trust
    return metrics


def report(result: AblationResult) -> str:
    aggregator_table = format_table(
        [
            "aggregator",
            "max trust",
            "best sharing level",
            "optimum in Area A",
            "penalty for unbalanced facets",
        ],
        [
            (
                outcome.aggregator,
                outcome.best_trust,
                outcome.best_sharing_level,
                outcome.best_in_area_a,
                outcome.unbalanced_penalty,
            )
            for outcome in result.aggregators
        ],
        title="E-A1: composite-metric aggregator ablation",
    )
    anonymity_table = format_table(
        [
            "feedback mode",
            "ranking accuracy",
            "reputation facet",
            "privacy facet",
            "ledger records per owner",
            "trust",
        ],
        [
            (
                outcome.mode,
                outcome.reputation_accuracy,
                outcome.reputation_facet,
                outcome.privacy_facet,
                outcome.mean_exposure_records,
                outcome.trust,
            )
            for outcome in result.anonymity
        ],
        title="E-A2: anonymous versus identified feedback",
    )
    return aggregator_table + "\n\n" + anonymity_table
