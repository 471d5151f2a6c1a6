"""Experiment E-X1: attack-resistance of every mechanism vs every scenario.

Section 2.2 enumerates the adversarial context a reputation mechanism must
survive — selfish peers, malicious peers, traitors, whitewashers — and the
reputation literature adds collusion, slander and sybil attacks.  This
experiment runs every reputation mechanism (plus the no-reputation baseline)
against every entry of the attack-scenario catalog
(:mod:`repro.scenarios.catalog`) and reports, per (scenario, mechanism)
cell:

* good-vs-bad score **separation** before, during and after the attack
  window — the gap the attack tries to collapse;
* the **rank correlation** of final scores against ground-truth service
  quality;
* **time-to-detect** (rounds from attack start until separation reaches the
  detection threshold) and **time-to-recover** (rounds from attack end until
  separation is back at the pre-attack baseline); −1 means never within the
  run;
* the **malicious-transaction rates** users actually experienced during and
  after the attack.

Expected shape: EigenTrust's pre-trusted restart damps collusion rings but
loses to whitewashing waves (identity reset erases exactly the evidence it
needs); count-based mechanisms degrade under slander/ballot-stuffing; every
mechanism beats the no-reputation baseline on malicious traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro._util import mean
from repro.errors import ConfigurationError
from repro.experiments.reporting import format_table
from repro.scenarios.catalog import scenario_names
from repro.scenarios.metrics import RobustnessMetrics
from repro.scenarios.runner import ScenarioRunConfig, run_scenario

#: Mechanisms evaluated by default ("none" is the no-reputation baseline).
DEFAULT_MECHANISMS = ("none", "average", "beta", "eigentrust", "powertrust")


@dataclass
class ScenarioOutcome:
    """One (scenario, mechanism) cell of the robustness matrix."""

    scenario: str
    mechanism: str
    window: tuple[int, int]
    robustness: RobustnessMetrics


@dataclass
class RobustnessResult:
    outcomes: list[ScenarioOutcome]

    def for_scenario(self, scenario: str) -> list[ScenarioOutcome]:
        return [o for o in self.outcomes if o.scenario == scenario]

    def for_mechanism(self, mechanism: str) -> list[ScenarioOutcome]:
        return [o for o in self.outcomes if o.mechanism == mechanism]

    def resistance_by_mechanism(self) -> dict[str, float]:
        """Mean attack-window separation per mechanism over attack scenarios.

        The single "how well does this mechanism hold the line under fire"
        number.  The no-attack control row is excluded, and so is the
        ``"none"`` mechanism: with no published scores its separation is
        identically 0.0, which would rank the do-nothing baseline above any
        mechanism an attack manages to push negative.
        """
        resistance: dict[str, list[float]] = {}
        for outcome in self.outcomes:
            if outcome.scenario == "baseline" or outcome.mechanism == "none":
                continue
            resistance.setdefault(outcome.mechanism, []).append(
                outcome.robustness.attack_separation
            )
        return {mechanism: mean(values) for mechanism, values in resistance.items() if values}


def run(
    *,
    scenarios: Sequence[str] | None = None,
    scenario: str | None = None,
    mechanisms: Sequence[str] = DEFAULT_MECHANISMS,
    mechanism: str | None = None,
    n_users: int = 40,
    rounds: int = 30,
    seed: int = 0,
    malicious_fraction: float = 0.25,
    preset: str | None = None,
    detect_threshold: float = 0.1,
    recovery_fraction: float = 0.8,
    template: str | None = None,
    tier: str | None = None,
) -> RobustnessResult:
    """Run the scenario × mechanism robustness matrix.

    ``scenarios`` defaults to the whole catalog.  The singular ``scenario``/
    ``mechanism`` parameters restrict the matrix to one row/column — they
    exist so sweep grids (which carry JSON scalars only) can sweep the
    catalog by name.  ``template``/``tier`` run one declarative scenario
    template instead and take precedence over ``scenario(s)`` and the sizing
    parameters (the template document supplies those;
    ``detect_threshold`` and ``recovery_fraction`` still apply), so sweeps
    can cover the template library the same way they cover the catalog.
    """
    if mechanism is not None:
        mechanisms = (mechanism,)
    if template is not None:
        # Local import: the schema package layers on top of this module.
        from repro.scenarios.schema import compile_template, find_template

        document = find_template(template)
        outcomes: list[ScenarioOutcome] = []
        for mechanism_name in mechanisms:
            compiled = compile_template(document, tier, mechanism=mechanism_name)
            config = compiled.config
            config.detect_threshold = detect_threshold
            config.recovery_fraction = recovery_fraction
            result = run_scenario(config)
            outcomes.append(
                ScenarioOutcome(
                    scenario=config.scenario,
                    mechanism=mechanism_name,
                    window=result.campaign.window,
                    robustness=result.robustness,
                )
            )
        return RobustnessResult(outcomes=outcomes)
    if tier is not None:
        raise ConfigurationError("tier only applies to template runs")
    if scenario is not None:
        scenarios = (scenario,)
    elif scenarios is None:
        scenarios = tuple(scenario_names())
    outcomes = []
    for scenario_name in scenarios:
        for mechanism_name in mechanisms:
            result = run_scenario(
                ScenarioRunConfig(
                    scenario=scenario_name,
                    mechanism=mechanism_name,
                    n_users=n_users,
                    rounds=rounds,
                    seed=seed,
                    malicious_fraction=malicious_fraction,
                    preset=preset,
                    detect_threshold=detect_threshold,
                    recovery_fraction=recovery_fraction,
                )
            )
            outcomes.append(
                ScenarioOutcome(
                    scenario=scenario_name,
                    mechanism=mechanism_name,
                    window=result.campaign.window,
                    robustness=result.robustness,
                )
            )
    return RobustnessResult(outcomes=outcomes)


def summarize(result: RobustnessResult) -> dict[str, object]:
    """Flatten the robustness matrix to record metrics (JSON scalars)."""
    metrics: dict[str, object] = {"n_outcomes": len(result.outcomes)}
    for outcome in result.outcomes:
        prefix = f"{outcome.scenario}.{outcome.mechanism}"
        robustness = outcome.robustness
        metrics[f"{prefix}.separation_baseline"] = robustness.baseline_separation
        metrics[f"{prefix}.separation_attack"] = robustness.attack_separation
        metrics[f"{prefix}.separation_post"] = robustness.post_separation
        metrics[f"{prefix}.rank_correlation"] = robustness.final_rank_correlation
        metrics[f"{prefix}.time_to_detect"] = robustness.time_to_detect
        metrics[f"{prefix}.time_to_recover"] = robustness.time_to_recover
        metrics[f"{prefix}.malicious_rate_attack"] = robustness.attack_malicious_rate
        metrics[f"{prefix}.malicious_rate_post"] = robustness.post_malicious_rate
    for mechanism, resistance in sorted(result.resistance_by_mechanism().items()):
        metrics[f"resistance.{mechanism}"] = resistance
    return metrics


def report(result: RobustnessResult) -> str:
    rows = [
        (
            outcome.scenario,
            outcome.mechanism,
            outcome.robustness.baseline_separation,
            outcome.robustness.attack_separation,
            outcome.robustness.post_separation,
            outcome.robustness.time_to_detect,
            outcome.robustness.time_to_recover,
            outcome.robustness.final_rank_correlation,
            outcome.robustness.attack_malicious_rate,
        )
        for outcome in result.outcomes
    ]
    matrix = format_table(
        [
            "scenario",
            "mechanism",
            "sep before",
            "sep attack",
            "sep after",
            "detect",
            "recover",
            "rank corr",
            "malicious tx",
        ],
        rows,
        title="E-X1: attack scenarios vs reputation mechanisms (-1 = never)",
    )
    resistance = result.resistance_by_mechanism()
    resistance_table = format_table(
        ["mechanism", "mean separation held during attacks"],
        sorted(resistance.items(), key=lambda item: -item[1]),
        title="E-X1: overall attack resistance",
    )
    return matrix + "\n\n" + resistance_table
