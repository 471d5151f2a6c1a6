"""Compiling validated templates onto the existing execution objects.

:func:`compile_template` turns a :class:`~repro.scenarios.schema.model.ScenarioTemplate`
plus an optional size tier into a ready-to-run
:class:`~repro.scenarios.runner.ScenarioRunConfig`.  Catalog-reference
templates resolve to the referenced catalog entry with the template's knobs.
A fully declarative campaign template's config carries the template's
campaign section, which :func:`~repro.scenarios.catalog.compile_campaign`
materializes into :class:`~repro.scenarios.campaign.AttackCampaign` events
(and, when churn is declared, a
:class:`~repro.simulation.churn.PhasedChurnModel`) at run time.  So the
normal ``run_scenario`` pipeline — network cache, shared simulations,
sweeps, checkpoints and resumes in a fresh process — executes it exactly
like a built-in scenario, and nothing is added to
:data:`~repro.scenarios.catalog.CATALOG`.  Nothing here draws randomness
or reads the clock: a compiled template is a pure function of the
document, so a template run is byte-identical to the equivalent
Python-constructed run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, TemplateError
from repro.scenarios.catalog import CATALOG, compile_campaign, get_scenario
from repro.scenarios.runner import ScenarioRunConfig
from repro.scenarios.schema.model import ScenarioTemplate, TierSpec


@dataclass(frozen=True)
class CompiledScenario:
    """One template compiled for one tier: the runnable configuration."""

    template: ScenarioTemplate
    tier: str | None
    config: ScenarioRunConfig

    @property
    def name(self) -> str:
        return self.template.name

    @property
    def scenario(self) -> str:
        """The scenario name the run's records carry."""
        return self.config.scenario


def _resolve_tier(template: ScenarioTemplate, tier: str | None) -> TierSpec:
    if tier is None:
        return TierSpec()
    try:
        return template.tiers[tier]
    except KeyError:
        raise TemplateError(
            "tiers",
            f"template {template.name!r} does not define tier {tier!r}; "
            f"declared: {template.tier_names()}",
        ) from None


def compile_template(
    template: ScenarioTemplate,
    tier: str | None = None,
    *,
    mechanism: str | None = None,
) -> CompiledScenario:
    """Compile a template (at an optional size tier) into a runnable config.

    ``mechanism`` overrides the template's run section — the CLI and the
    experiment layer use it to sweep one template across the mechanism
    matrix.  A campaign template's config carries its campaign section, so
    recompiling an edited template never serves a stale campaign.
    """
    tier_spec = _resolve_tier(template, tier)
    tier_path = f"tiers.{tier}" if tier is not None else "run"

    n_users = tier_spec.n_users if tier_spec.n_users is not None else template.network.n_users
    rounds = tier_spec.rounds if tier_spec.rounds is not None else template.run.rounds
    interactions = (
        tier_spec.interactions_per_peer
        if tier_spec.interactions_per_peer is not None
        else template.run.interactions_per_peer
    )
    if template.network.preset is not None and tier_spec.n_users is not None:
        raise TemplateError(
            f"{tier_path}.n_users", "n_users has no effect with a preset network"
        )

    knobs: dict[str, object] = {}
    if template.catalog is not None:
        scenario_name = template.catalog.name
        knobs.update(template.catalog.knobs)
        knobs.update(tier_spec.knobs)
        try:
            get_scenario(scenario_name).merged_knobs(knobs)
        except ConfigurationError as error:
            raise TemplateError("scenario", str(error)) from error
    else:
        if tier_spec.knobs:
            raise TemplateError(
                f"{tier_path}.knobs", "campaign templates take no scenario knobs"
            )
        scenario_name = template.name
        if scenario_name in CATALOG:
            raise TemplateError(
                "name",
                f"campaign template name {scenario_name!r} collides with a "
                "built-in catalog scenario",
            )
        section = template.campaign
        if section is None:  # unreachable after validation
            raise TemplateError("campaign", "template has no campaign section")
        # Surface campaign materialization errors now, with document paths.
        compile_campaign(scenario_name, section, rounds)

    try:
        config = ScenarioRunConfig(
            scenario=scenario_name,
            mechanism=mechanism if mechanism is not None else template.run.mechanism,
            n_users=n_users,
            rounds=rounds,
            seed=template.run.seed,
            topology=template.network.topology,
            malicious_fraction=template.network.malicious_fraction,
            interactions_per_peer=interactions,
            sharing_level=template.run.sharing_level,
            preset=template.network.preset,
            knobs=knobs,
            detect_threshold=template.metrics.detect_threshold,
            recovery_fraction=template.metrics.recovery_fraction,
            campaign=template.campaign,
        )
    except ConfigurationError as error:
        raise TemplateError("run", str(error)) from error
    return CompiledScenario(template=template, tier=tier, config=config)
