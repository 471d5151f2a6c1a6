"""Tests for template → runnable-config compilation."""

import pytest

from repro.errors import TemplateError
from repro.scenarios.campaign import SelectGroup, SetOnline, SwitchBehavior, Whitewash
from repro.scenarios.catalog import (
    CATALOG,
    build_campaign,
    register_scenario,
    unregister_scenario,
)
from repro.scenarios.runner import run_scenario
from repro.scenarios.schema.compile import (
    compile_campaign,
    compile_template,
    resolve_round,
)
from repro.scenarios.schema.model import parse_template
from test_schema_model import campaign_doc, minimal_doc


@pytest.fixture(autouse=True)
def _clean_registered_scenarios():
    before = set(CATALOG)
    yield
    for name in set(CATALOG) - before:
        unregister_scenario(name)


class TestRoundResolution:
    def test_int_positions_pass_through(self):
        assert resolve_round(7, 30) == 7

    def test_fractions_scale_with_rounds(self):
        assert resolve_round(0.5, 30) == 15
        assert resolve_round(0.5, 10) == 5
        assert resolve_round(0.0, 30) == 0
        assert resolve_round(1.0, 30) == 30


class TestCatalogCompilation:
    def test_catalog_ref_resolves(self):
        compiled = compile_template(parse_template(minimal_doc()))
        assert compiled.config.scenario == "collusion-ring"
        assert compiled.config.n_users == 40
        assert compiled.config.rounds == 30
        assert compiled.tier is None

    def test_tier_overrides_sizing(self):
        doc = minimal_doc(tiers={"small": {"n_users": 12, "rounds": 8}})
        compiled = compile_template(parse_template(doc), "small")
        assert compiled.config.n_users == 12
        assert compiled.config.rounds == 8
        assert compiled.tier == "small"

    def test_tier_knobs_merge_over_template_knobs(self):
        doc = minimal_doc(tiers={"large": {"knobs": {"ring_fraction": 0.9}}})
        doc["scenario"]["knobs"] = {"ring_fraction": 0.5, "density": 0.7}
        compiled = compile_template(parse_template(doc), "large")
        assert compiled.config.knobs == {"ring_fraction": 0.9, "density": 0.7}

    def test_undeclared_tier_rejected(self):
        with pytest.raises(TemplateError) as excinfo:
            compile_template(parse_template(minimal_doc()), "large")
        assert excinfo.value.path == "tiers"

    def test_unknown_catalog_scenario(self):
        doc = minimal_doc()
        doc["scenario"]["catalog"] = "teleport-attack"
        with pytest.raises(TemplateError) as excinfo:
            compile_template(parse_template(doc))
        assert excinfo.value.path == "scenario"

    def test_unknown_catalog_knob(self):
        doc = minimal_doc()
        doc["scenario"]["knobs"] = {"warp_factor": 9}
        with pytest.raises(TemplateError) as excinfo:
            compile_template(parse_template(doc))
        assert excinfo.value.path == "scenario"

    def test_mechanism_override(self):
        compiled = compile_template(parse_template(minimal_doc()), mechanism="beta")
        assert compiled.config.mechanism == "beta"

    def test_preset_network(self):
        doc = minimal_doc(network={"preset": "village"})
        compiled = compile_template(parse_template(doc))
        assert compiled.config.preset == "village"

    def test_preset_with_tier_n_users_rejected(self):
        doc = minimal_doc(
            network={"preset": "village"}, tiers={"small": {"n_users": 10}}
        )
        with pytest.raises(TemplateError) as excinfo:
            compile_template(parse_template(doc), "small")
        assert excinfo.value.path == "tiers.small.n_users"


class TestCampaignCompilation:
    def test_events_materialize_with_scaled_rounds(self):
        template = parse_template(campaign_doc())
        campaign = compile_campaign("example-campaign", template.campaign, 20)
        assert [type(event) for event in campaign.events] == [
            SelectGroup, SwitchBehavior, SetOnline, Whitewash,
        ]
        assert [event.round_index for event in campaign.events] == [0, 5, 10, 15]
        assert campaign.window == (5, 15)

    def test_churn_phases_scale(self):
        template = parse_template(campaign_doc())
        campaign = compile_campaign("example-campaign", template.campaign, 20)
        assert campaign.churn is not None
        phase = campaign.churn.phases[0]
        assert (phase.start, phase.end) == (5, 15)
        assert phase.leave_probability == 0.3

    def test_fractional_one_clamps_to_final_round(self):
        doc = campaign_doc()
        doc["campaign"]["events"][-1]["round"] = 1.0
        template = parse_template(doc)
        campaign = compile_campaign("example-campaign", template.campaign, 20)
        assert campaign.events[-1].round_index == 19

    def test_absolute_round_beyond_budget_rejected(self):
        doc = campaign_doc()
        doc["campaign"]["events"][2]["round"] = 25
        template = parse_template(doc)
        with pytest.raises(TemplateError) as excinfo:
            compile_campaign("example-campaign", template.campaign, 20)
        assert excinfo.value.path == "campaign.events[2].round"

    def test_unknown_behavior_rejected_with_path(self):
        doc = campaign_doc()
        doc["campaign"]["events"][1]["behavior"] = "quantum"
        template = parse_template(doc)
        with pytest.raises(TemplateError) as excinfo:
            compile_campaign("example-campaign", template.campaign, 20)
        assert excinfo.value.path == "campaign.events[1].behavior"

    def test_unknown_behavior_args_rejected(self):
        doc = campaign_doc()
        doc["campaign"]["events"][1]["args"] = {"gravity": 9.8}
        template = parse_template(doc)
        with pytest.raises(TemplateError) as excinfo:
            compile_campaign("example-campaign", template.campaign, 20)
        assert excinfo.value.path == "campaign.events[1].behavior"

    def test_collapsing_churn_phase_rejected(self):
        doc = campaign_doc()
        doc["campaign"]["churn"]["phases"] = [{"start": 0.5, "end": 0.52}]
        template = parse_template(doc)
        with pytest.raises(TemplateError) as excinfo:
            compile_campaign("example-campaign", template.campaign, 10)
        assert excinfo.value.path.startswith("campaign.churn.phases[0]")


class TestCampaignRegistration:
    def test_compile_registers_and_runs(self):
        compiled = compile_template(parse_template(campaign_doc()), "small")
        assert compiled.config.scenario == "example-campaign"
        assert "example-campaign" in CATALOG
        result = run_scenario(compiled.config)
        assert result.campaign.name == "example-campaign"
        assert result.robustness is not None

    def test_recompile_replaces_stale_campaign(self):
        doc = campaign_doc()
        compile_template(parse_template(doc))
        assert build_campaign("example-campaign", rounds=20).window == (5, 15)
        doc["campaign"]["window"] = {"start": 0.5, "end": 1.0}
        compile_template(parse_template(doc))
        assert build_campaign("example-campaign", rounds=20).window == (10, 20)

    def test_builtin_name_collision_rejected(self):
        doc = campaign_doc(name="baseline")
        with pytest.raises(TemplateError) as excinfo:
            compile_template(parse_template(doc))
        assert excinfo.value.path == "name"

    def test_tier_knobs_on_campaign_template_rejected(self):
        doc = campaign_doc()
        doc["tiers"]["small"]["knobs"] = {"ring_fraction": 0.5}
        with pytest.raises(TemplateError) as excinfo:
            compile_template(parse_template(doc), "small")
        assert excinfo.value.path == "tiers.small.knobs"

    def test_campaigns_with_churn_build_fresh_models(self):
        compile_template(parse_template(campaign_doc()))
        first = build_campaign("example-campaign", rounds=20)
        second = build_campaign("example-campaign", rounds=20)
        assert first.churn is not second.churn

    def test_register_scenario_api_guards(self):
        from repro.scenarios.catalog import ScenarioSpec, baseline

        spec = ScenarioSpec(name="transient", description="", build=baseline)
        register_scenario(spec)
        with pytest.raises(Exception):
            register_scenario(spec)
        register_scenario(spec, replace=True)
        unregister_scenario("transient")
        assert "transient" not in CATALOG
        with pytest.raises(Exception):
            unregister_scenario("baseline")
