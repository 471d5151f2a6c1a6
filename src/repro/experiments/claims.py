"""Experiments E-C1..E-C5: the five qualitative couplings of Section 3.

Each bullet of Section 3 becomes a measurable statement; the experiment runs
the coupling dynamics and/or targeted scenario sweeps and reports, per claim,
the quantity measured, its value and whether the paper's direction holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._util import pearson
from repro.core.config import SystemSettings
from repro.core.coupling import CouplingDynamics, CouplingState
from repro.experiments.reporting import format_table
from repro.experiments.scenario import Scenario, ScenarioConfig


@dataclass
class ClaimOutcome:
    """The measured outcome of one Section-3 claim."""

    claim_id: str
    statement: str
    measured: float
    holds: bool
    detail: str = ""


@dataclass
class ClaimsResult:
    outcomes: list[ClaimOutcome]

    @property
    def all_hold(self) -> bool:
        return all(outcome.holds for outcome in self.outcomes)

    def by_id(self) -> dict[str, ClaimOutcome]:
        return {outcome.claim_id: outcome for outcome in self.outcomes}


def _claim_c1_trust_satisfaction() -> ClaimOutcome:
    """Trust and satisfaction reinforce each other (closed-loop response)."""
    dynamics = CouplingDynamics()
    equilibrium = dynamics.equilibrium()
    boosted = replace(equilibrium, satisfaction=min(1.0, equilibrium.satisfaction + 0.2))
    state = boosted
    for _ in range(5):
        state = dynamics.step(state)
    trust_response = state.trust - equilibrium.trust

    boosted_trust = replace(equilibrium, trust=min(1.0, equilibrium.trust + 0.2))
    state = boosted_trust
    for _ in range(5):
        state = dynamics.step(state)
    satisfaction_response = state.satisfaction - equilibrium.satisfaction

    measured = min(trust_response, satisfaction_response)
    return ClaimOutcome(
        claim_id="E-C1",
        statement="trust and satisfaction mutually reinforce",
        measured=measured,
        holds=trust_response > 0 and satisfaction_response > 0,
        detail=(
            f"satisfaction shock -> trust {trust_response:+.3f}; "
            f"trust shock -> satisfaction {satisfaction_response:+.3f}"
        ),
    )


def _claim_c2_reputation_trust_contribution() -> ClaimOutcome:
    """Better mechanism -> more trust -> more honest contribution."""
    weak = CouplingDynamics(mechanism_power=0.3).equilibrium()
    strong = CouplingDynamics(mechanism_power=0.95).equilibrium()
    trust_gain = strong.trust - weak.trust
    contribution_gain = strong.honest_contribution - weak.honest_contribution
    return ClaimOutcome(
        claim_id="E-C2",
        statement="efficient reputation raises trust, which raises honest contribution",
        measured=min(trust_gain, contribution_gain),
        holds=trust_gain > 0 and contribution_gain > 0,
        detail=(
            f"mechanism power 0.3 -> 0.95: trust {weak.trust:.3f} -> {strong.trust:.3f}, "
            f"honest contribution {weak.honest_contribution:.3f} -> "
            f"{strong.honest_contribution:.3f}"
        ),
    )


def _claim_c3_reputation_satisfaction(
    *, n_users: int, rounds: int, seed: int
) -> ClaimOutcome:
    """Reputation efficiency and satisfaction move together (simulation)."""
    satisfactions = []
    powers = []
    for mechanism in ("none", "average", "eigentrust"):
        settings = SystemSettings(reputation_mechanism=mechanism)
        result = Scenario(
            ScenarioConfig(
                n_users=n_users,
                rounds=rounds,
                seed=seed,
                malicious_fraction=0.3,
                settings=settings,
            )
        ).run()
        satisfactions.append(result.facets.satisfaction)
        powers.append(result.facets.reputation)
    correlation = pearson(powers, satisfactions)
    improvement = satisfactions[-1] - satisfactions[0]
    return ClaimOutcome(
        claim_id="E-C3",
        statement="the more efficient the reputation mechanism, the more users are satisfied",
        measured=improvement,
        holds=improvement > 0,
        detail=(
            f"satisfaction none={satisfactions[0]:.3f}, average={satisfactions[1]:.3f}, "
            f"eigentrust={satisfactions[2]:.3f}; corr(power, satisfaction)={correlation:.2f}"
        ),
    )


def _claim_c4_untrustworthy_majority() -> ClaimOutcome:
    """Accurate mechanism + untrustworthy majority => low trust, continued contribution."""
    healthy = CouplingDynamics(trustworthy_fraction=0.8, mechanism_power=0.95).equilibrium()
    hostile = CouplingDynamics(trustworthy_fraction=0.3, mechanism_power=0.95).equilibrium()
    trust_drop = healthy.trust - hostile.trust
    contribution_kept = hostile.honest_contribution
    return ClaimOutcome(
        claim_id="E-C4",
        statement=(
            "an efficient mechanism facing an untrustworthy majority yields low trust "
            "while users keep contributing"
        ),
        measured=trust_drop,
        holds=trust_drop > 0.05 and hostile.trust < healthy.trust and contribution_kept > 0.3,
        detail=(
            f"trust {healthy.trust:.3f} -> {hostile.trust:.3f} when trustworthy fraction "
            f"falls 0.8 -> 0.3; contribution stays at {contribution_kept:.3f}"
        ),
    )


def _claim_c5_information_privacy_loop() -> ClaimOutcome:
    """More gathering -> better reputation; less trust -> less disclosure;
    more privacy respect -> more satisfaction."""
    low_sharing = CouplingDynamics(sharing_level=0.2).equilibrium()
    high_sharing = CouplingDynamics(sharing_level=1.0).equilibrium()
    reputation_gain = high_sharing.reputation_efficiency - low_sharing.reputation_efficiency
    privacy_loss = low_sharing.privacy_satisfaction - high_sharing.privacy_satisfaction

    respected = CouplingDynamics(policy_respect=1.0).equilibrium()
    breached = CouplingDynamics(policy_respect=0.4).equilibrium()
    satisfaction_gain = respected.satisfaction - breached.satisfaction

    low_trust_disclosure = CouplingDynamics().step(CouplingState(trust=0.1)).disclosure
    high_trust_disclosure = CouplingDynamics().step(CouplingState(trust=0.9)).disclosure
    disclosure_gap = high_trust_disclosure - low_trust_disclosure

    holds = (
        reputation_gain > 0
        and privacy_loss > 0
        and satisfaction_gain > 0
        and disclosure_gap > 0
    )
    return ClaimOutcome(
        claim_id="E-C5",
        statement=(
            "more gathered information makes reputation more efficient but erodes "
            "privacy; less trust means less disclosure; respected privacy raises satisfaction"
        ),
        measured=min(reputation_gain, privacy_loss, satisfaction_gain, disclosure_gap),
        holds=holds,
        detail=(
            f"reputation +{reputation_gain:.3f} and privacy -{privacy_loss:.3f} when sharing "
            f"0.2 -> 1.0; satisfaction +{satisfaction_gain:.3f} when policy respect 0.4 -> 1.0; "
            f"disclosure +{disclosure_gap:.3f} when trust 0.1 -> 0.9"
        ),
    )


def run(
    *, n_users: int = 40, rounds: int = 20, seed: int = 0
) -> ClaimsResult:
    """Run every Section-3 claim experiment."""
    outcomes = [
        _claim_c1_trust_satisfaction(),
        _claim_c2_reputation_trust_contribution(),
        _claim_c3_reputation_satisfaction(n_users=n_users, rounds=rounds, seed=seed),
        _claim_c4_untrustworthy_majority(),
        _claim_c5_information_privacy_loop(),
    ]
    return ClaimsResult(outcomes=outcomes)


def summarize(result: ClaimsResult) -> dict[str, object]:
    """Flatten E-C1..E-C5 to record metrics (per-claim effect and verdict)."""
    metrics: dict[str, object] = {
        "all_hold": result.all_hold,
        "n_claims": len(result.outcomes),
        "n_holding": sum(1 for outcome in result.outcomes if outcome.holds),
    }
    for outcome in result.outcomes:
        metrics[f"{outcome.claim_id}.measured"] = outcome.measured
        metrics[f"{outcome.claim_id}.holds"] = outcome.holds
    return metrics


def report(result: ClaimsResult) -> str:
    rows = [
        (outcome.claim_id, outcome.statement, outcome.measured, outcome.holds)
        for outcome in result.outcomes
    ]
    table = format_table(
        ["claim", "statement (Section 3)", "measured effect", "holds"],
        rows,
        title="E-C1..E-C5: the five qualitative couplings of Section 3",
    )
    details = "\n".join(f"  {outcome.claim_id}: {outcome.detail}" for outcome in result.outcomes)
    return table + "\n\nDetails:\n" + details
