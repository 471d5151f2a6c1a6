"""Experiment E-F1: Figure 1, the relationships among the dimensions.

Figure 1 draws arrows between satisfaction, reputation, privacy and trust
towards the system.  The experiment quantifies each arrow twice:

* **analytically** — the signed sensitivity matrix of the Section-3 coupling
  dynamics at equilibrium (:func:`repro.core.coupling.coupling_matrix`);
* **empirically** — contrasts between pairs of full scenarios that differ in
  exactly one cause (sharing level, adversary mix, deployed mechanism) while
  the effect the arrow predicts is measured on the outcome.

"Reproduced" means the signs match the paper's arrows: every pairwise
relation among (satisfaction, reputation efficiency, trust) is positive,
disclosure→privacy is negative, and privacy→satisfaction is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.config import SystemSettings
from repro.core.coupling import CouplingDynamics, coupling_matrix
from repro.experiments.reporting import format_table
from repro.experiments.scenario import Scenario, ScenarioConfig, ScenarioResult

#: The arrows of Figure 1 and the sign the paper claims for each.
EXPECTED_SIGNS = {
    ("satisfaction", "trust"): +1,
    ("trust", "satisfaction"): +1,
    ("reputation_efficiency", "trust"): +1,
    ("trust", "honest_contribution"): +1,
    ("reputation_efficiency", "satisfaction"): +1,
    ("satisfaction", "reputation_efficiency"): +1,
    ("disclosure", "privacy_satisfaction"): -1,
    ("privacy_satisfaction", "satisfaction"): +1,
    ("trust", "disclosure"): +1,
    ("disclosure", "reputation_efficiency"): +1,
}


@dataclass
class EmpiricalContrast:
    """One scenario contrast: a cause is raised, an effect is measured."""

    name: str
    cause: str
    effect: str
    low_value: float
    high_value: float
    expected_sign: int

    @property
    def delta(self) -> float:
        return self.high_value - self.low_value

    @property
    def holds(self) -> bool:
        return self.delta > 0 if self.expected_sign > 0 else self.delta < 0


@dataclass
class Figure1Result:
    """Analytic sensitivities, empirical contrasts and sign agreement."""

    sensitivities: dict[str, dict[str, float]]
    sign_matches: dict[tuple, bool]
    contrasts: list[EmpiricalContrast]

    @property
    def all_signs_match(self) -> bool:
        return all(self.sign_matches.values())

    @property
    def all_contrasts_hold(self) -> bool:
        return all(contrast.holds for contrast in self.contrasts)


def _scenario(
    settings: SystemSettings,
    *,
    n_users: int,
    rounds: int,
    seed: int,
    malicious_fraction: float = 0.2,
) -> ScenarioResult:
    return Scenario(
        ScenarioConfig(
            n_users=n_users,
            rounds=rounds,
            seed=seed,
            malicious_fraction=malicious_fraction,
            settings=settings,
        )
    ).run()


def _empirical_contrasts(
    *, n_users: int, rounds: int, seed: int
) -> list[EmpiricalContrast]:
    """Targeted scenario pairs, one per Figure-1 arrow measurable end to end."""
    contrasts: list[EmpiricalContrast] = []

    # Arrow: more shared information -> lower privacy, and more shared
    # information -> more efficient reputation (coverage of the population).
    low_sharing = _scenario(
        SystemSettings(sharing_level=0.15, reputation_mechanism="beta"),
        n_users=n_users,
        rounds=rounds,
        seed=seed,
    )
    high_sharing = _scenario(
        SystemSettings(sharing_level=1.0, reputation_mechanism="beta"),
        n_users=n_users,
        rounds=rounds,
        seed=seed,
    )
    contrasts.append(
        EmpiricalContrast(
            name="sharing up => privacy down",
            cause="sharing level 0.15 -> 1.0",
            effect="privacy facet",
            low_value=low_sharing.facets.privacy,
            high_value=high_sharing.facets.privacy,
            expected_sign=-1,
        )
    )
    contrasts.append(
        EmpiricalContrast(
            name="sharing up => reputation power up",
            cause="sharing level 0.15 -> 1.0",
            effect="reputation facet",
            low_value=low_sharing.facets.reputation,
            high_value=high_sharing.facets.reputation,
            expected_sign=+1,
        )
    )

    # Arrow: a more efficient reputation mechanism -> more trust.
    no_reputation = _scenario(
        SystemSettings(reputation_mechanism="none"),
        n_users=n_users,
        rounds=rounds,
        seed=seed,
        malicious_fraction=0.3,
    )
    with_reputation = _scenario(
        SystemSettings(reputation_mechanism="eigentrust"),
        n_users=n_users,
        rounds=rounds,
        seed=seed,
        malicious_fraction=0.3,
    )
    contrasts.append(
        EmpiricalContrast(
            name="reputation mechanism deployed => trust up",
            cause="mechanism none -> eigentrust",
            effect="global trust",
            low_value=no_reputation.trust.global_trust,
            high_value=with_reputation.trust.global_trust,
            expected_sign=+1,
        )
    )

    # Arrow: satisfaction and trust move together — contrast a hostile
    # population (low satisfaction) with a healthy one.
    hostile = _scenario(
        SystemSettings(),
        n_users=n_users,
        rounds=rounds,
        seed=seed,
        malicious_fraction=0.6,
    )
    healthy = _scenario(
        SystemSettings(),
        n_users=n_users,
        rounds=rounds,
        seed=seed,
        malicious_fraction=0.05,
    )
    contrasts.append(
        EmpiricalContrast(
            name="satisfaction up => trust up",
            cause="malicious fraction 0.6 -> 0.05 (satisfaction "
            f"{hostile.facets.satisfaction:.3f} -> {healthy.facets.satisfaction:.3f})",
            effect="global trust",
            low_value=hostile.trust.global_trust,
            high_value=healthy.trust.global_trust,
            expected_sign=+1,
        )
    )
    return contrasts


def run(
    *,
    sharing_levels: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    n_users: int = 40,
    rounds: int = 20,
    seed: int = 0,
) -> Figure1Result:
    """Run E-F1 and return its result.

    ``sharing_levels`` is kept for API compatibility with older callers and
    the quick-mode presets; the empirical part now uses targeted contrasts
    rather than a correlation over that sweep.
    """
    dynamics = CouplingDynamics()
    sensitivities = coupling_matrix(dynamics)

    sign_matches = {}
    for (source, target), expected in EXPECTED_SIGNS.items():
        measured = sensitivities[source][target]
        sign_matches[(source, target)] = measured > 0 if expected > 0 else measured < 0

    contrasts = _empirical_contrasts(n_users=n_users, rounds=rounds, seed=seed)
    return Figure1Result(
        sensitivities=sensitivities,
        sign_matches=sign_matches,
        contrasts=contrasts,
    )


def summarize(result: Figure1Result) -> dict[str, object]:
    """Flatten E-F1 to record metrics (sign agreement plus contrast deltas)."""
    metrics: dict[str, object] = {
        "all_signs_match": result.all_signs_match,
        "all_contrasts_hold": result.all_contrasts_hold,
        "n_signs": len(result.sign_matches),
        "n_signs_matching": sum(1 for match in result.sign_matches.values() if match),
        "n_contrasts": len(result.contrasts),
        "n_contrasts_holding": sum(1 for c in result.contrasts if c.holds),
    }
    for source, target in sorted(EXPECTED_SIGNS):
        metrics[f"sensitivity.{source}->{target}"] = result.sensitivities[source][target]
    for contrast in result.contrasts:
        metrics[f"contrast_delta.{contrast.name}"] = contrast.delta
    return metrics


def report(result: Figure1Result) -> str:
    """Render the E-F1 tables."""
    rows = []
    for (source, target), expected in EXPECTED_SIGNS.items():
        measured = result.sensitivities[source][target]
        rows.append(
            (
                f"{source} -> {target}",
                "+" if expected > 0 else "-",
                measured,
                result.sign_matches[(source, target)],
            )
        )
    table1 = format_table(
        ["coupling (Figure 1 arrow)", "paper sign", "measured sensitivity", "matches"],
        rows,
        title="E-F1: concept couplings at the dynamics equilibrium",
    )
    table2 = format_table(
        ["contrast", "cause", "effect", "low", "high", "holds"],
        [
            (
                contrast.name,
                contrast.cause,
                contrast.effect,
                contrast.low_value,
                contrast.high_value,
                contrast.holds,
            )
            for contrast in result.contrasts
        ],
        title="E-F1: couplings measured on full scenarios (targeted contrasts)",
    )
    return table1 + "\n\n" + table2
