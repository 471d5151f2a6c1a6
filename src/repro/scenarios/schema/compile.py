"""Compiling validated templates onto the existing execution objects.

:func:`compile_template` turns a :class:`~repro.scenarios.schema.model.ScenarioTemplate`
plus an optional size tier into a ready-to-run
:class:`~repro.scenarios.runner.ScenarioRunConfig`.  Catalog-reference
templates resolve to the referenced catalog entry with the template's knobs;
fully declarative campaign templates are materialized into
:class:`~repro.scenarios.campaign.AttackCampaign` events (and, when churn is
declared, a :class:`~repro.simulation.churn.PhasedChurnModel`) and
registered in the catalog under the template's name, so the normal
``run_scenario`` pipeline — setup cache, run cache, sweep workers — executes
them exactly like built-in scenarios.  Nothing here draws randomness or
reads the clock: a compiled template is a pure function of the document, so
a template run is byte-identical to the equivalent Python-constructed run.

Fractional round positions (floats in ``[0, 1]``) resolve against the
tier's round budget via round-half-even on ``value * rounds``; event rounds
additionally clamp to the final round so ``1.0`` means "last round".
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.errors import ConfigurationError, TemplateError
from repro.scenarios.campaign import (
    AttackCampaign,
    CampaignEvent,
    PeerSelector,
    SelectGroup,
    SetOnline,
    SwitchBehavior,
    Whitewash,
)
from repro.scenarios.catalog import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    behavior_factory,
    get_scenario,
    register_scenario,
)
from repro.scenarios.runner import ScenarioRunConfig
from repro.scenarios.schema.model import CampaignSection, ScenarioTemplate, TierSpec
from repro.simulation.churn import ChurnPhase, PhasedChurnModel


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
        """The catalog scenario name the run executes under."""
        return self.config.scenario


def resolve_round(value: int | float, rounds: int) -> int:
    """Resolve a round position: ints pass through, fractions scale."""
    if isinstance(value, int):
        return value
    return int(round(value * rounds))


def _event_round(value: int | float, rounds: int, path: str) -> int:
    resolved = resolve_round(value, rounds)
    if isinstance(value, float):
        return min(resolved, rounds - 1)
    if resolved >= rounds:
        raise TemplateError(
            path, f"event round {resolved} never fires within {rounds} rounds"
        )
    return resolved


def compile_campaign(name: str, section: CampaignSection, rounds: int) -> AttackCampaign:
    """Materialize a declarative campaign section for a round budget."""
    events: list[CampaignEvent] = []
    for index, spec in enumerate(section.events):
        path = f"campaign.events[{index}]"
        round_index = _event_round(spec.round, rounds, f"{path}.round")
        if spec.action == "select":
            group = section.groups[spec.group]
            selector = PeerSelector(
                population=group.population,
                prefix=group.prefix,
                fraction=group.fraction,
                count=group.count,
                minimum=group.minimum,
            )
            events.append(SelectGroup(round_index, spec.group, selector))
        elif spec.action == "switch":
            if spec.behavior is None:  # unreachable after validation
                raise TemplateError(f"{path}.behavior", "switch events need a behavior name")
            try:
                factory = behavior_factory(spec.behavior, **dict(spec.args))
            except ConfigurationError as error:
                raise TemplateError(f"{path}.behavior", str(error)) from error
            events.append(SwitchBehavior(round_index, spec.group, factory))
        elif spec.action == "set-online":
            events.append(SetOnline(round_index, spec.group, spec.online, spec.pin))
        else:
            events.append(Whitewash(round_index, spec.group))

    window = (
        resolve_round(section.window[0], rounds),
        resolve_round(section.window[1], rounds),
    )
    if not 0 <= window[0] <= window[1] <= rounds:
        raise TemplateError(
            "campaign.window",
            f"window resolves to [{window[0]}, {window[1]}) outside 0..{rounds}",
        )

    churn: PhasedChurnModel | None = None
    if section.churn is not None:
        phases: list[ChurnPhase] = []
        for index, phase in enumerate(section.churn.phases):
            start = resolve_round(phase.start, rounds)
            end = resolve_round(phase.end, rounds)
            if end <= start:
                raise TemplateError(
                    f"campaign.churn.phases[{index}]",
                    f"phase collapses to [{start}, {end}) at rounds={rounds}",
                )
            phases.append(
                ChurnPhase(start, end, phase.leave_probability, phase.return_probability)
            )
        churn = PhasedChurnModel(
            leave_probability=section.churn.leave_probability,
            return_probability=section.churn.return_probability,
            phases=phases,
        )

    return AttackCampaign(
        name=name,
        events=events,
        window=window,
        churn=churn,
        description=f"template-defined campaign {name!r}",
    )


def _campaign_builder(template: ScenarioTemplate) -> Callable[..., AttackCampaign]:
    section = template.campaign
    if section is None:  # unreachable after validation
        raise TemplateError("campaign", "template has no campaign section")
    name = template.name

    def build(*, rounds: int) -> AttackCampaign:
        return compile_campaign(name, section, rounds)

    return build


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
    matrix.  Campaign templates are registered in the catalog
    (``replace=True``: recompiling an edited template in the same process
    must not serve the stale campaign).
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
        if scenario_name in BUILTIN_SCENARIOS:
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
        register_scenario(
            ScenarioSpec(
                name=scenario_name,
                description=template.description or f"template scenario {scenario_name!r}",
                build=_campaign_builder(template),
            ),
            replace=True,
        )

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
        )
    except ConfigurationError as error:
        raise TemplateError("run", str(error)) from error
    return CompiledScenario(template=template, tier=tier, config=config)
