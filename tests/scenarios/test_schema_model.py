"""Tests for the declarative scenario template model and strict validator."""

import json

import pytest

from repro.errors import TemplateError
from repro.scenarios.schema.model import (
    CURRENT_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    TIER_NAMES,
    migrate_document,
    parse_template,
    template_from_text,
)


def minimal_doc(**overrides):
    doc = {
        "schema_version": CURRENT_SCHEMA_VERSION,
        "name": "example",
        "scenario": {"catalog": "collusion-ring"},
    }
    doc.update(overrides)
    return doc


def campaign_doc(**overrides):
    doc = {
        "schema_version": CURRENT_SCHEMA_VERSION,
        "name": "example-campaign",
        "description": "a declarative campaign",
        "network": {"n_users": 30, "topology": "erdos_renyi", "malicious_fraction": 0.2},
        "run": {"mechanism": "beta", "seed": 3, "rounds": 20},
        "metrics": {"detect_threshold": 0.05, "recovery_fraction": 0.9},
        "campaign": {
            "window": {"start": 0.25, "end": 0.75},
            "groups": {"ring": {"population": "dishonest", "fraction": 0.5}},
            "events": [
                {"round": 0, "action": "select", "group": "ring"},
                {"round": 0.25, "action": "switch", "group": "ring", "behavior": "collusive",
                 "args": {"density": 0.8}},
                {"round": 0.5, "action": "set-online", "group": "ring", "online": False,
                 "pin": True},
                {"round": 0.75, "action": "whitewash", "group": "ring"},
            ],
            "churn": {
                "leave_probability": 0.02,
                "phases": [{"start": 0.25, "end": 0.75, "leave_probability": 0.3}],
            },
        },
        "tiers": {"small": {"n_users": 12, "rounds": 8}, "medium": {}},
    }
    doc.update(overrides)
    return doc


def error_path(excinfo) -> str:
    return excinfo.value.path


class TestDefaults:
    def test_minimal_document_fills_defaults(self):
        template = parse_template(minimal_doc())
        assert template.schema_version == CURRENT_SCHEMA_VERSION
        assert template.network.n_users == 40
        assert template.network.topology == "barabasi_albert"
        assert template.network.malicious_fraction == 0.25
        assert template.run.mechanism == "eigentrust"
        assert template.run.rounds == 30
        assert template.run.seed == 0
        assert template.metrics.detect_threshold == 0.1
        assert template.metrics.recovery_fraction == 0.8
        assert template.catalog is not None
        assert template.catalog.name == "collusion-ring"
        assert template.campaign is None
        assert template.tiers == {}

    def test_campaign_document_parses(self):
        template = parse_template(campaign_doc())
        assert template.catalog is None
        assert template.campaign is not None
        assert template.campaign.window == (0.25, 0.75)
        assert [event.action for event in template.campaign.events] == [
            "select", "switch", "set-online", "whitewash",
        ]
        assert template.campaign.churn is not None
        assert template.campaign.churn.phases[0].leave_probability == 0.3
        assert template.tier_names() == ["small", "medium"]


class TestStrictness:
    def test_unknown_top_level_field(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(surprise=1))
        assert error_path(excinfo) == "surprise"

    def test_unknown_nested_field_has_dotted_path(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(run={"roundz": 10}))
        assert error_path(excinfo) == "run.roundz"

    def test_wrong_type_has_path(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(run={"rounds": "thirty"}))
        assert error_path(excinfo) == "run.rounds"

    def test_bool_is_not_an_int(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(run={"seed": True}))
        assert error_path(excinfo) == "run.seed"

    def test_fraction_out_of_range(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(network={"malicious_fraction": 1.5}))
        assert error_path(excinfo) == "network.malicious_fraction"

    def test_unknown_topology(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(network={"topology": "torus"}))
        assert error_path(excinfo) == "network.topology"

    def test_preset_excludes_explicit_fields(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(network={"preset": "village", "n_users": 10}))
        assert error_path(excinfo) == "network.n_users"

    def test_event_error_has_indexed_path(self):
        doc = campaign_doc()
        doc["campaign"]["events"][1] = {
            "round": 0.25, "action": "switch", "group": "ring",
        }
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert error_path(excinfo) == "campaign.events[1].behavior"

    def test_unknown_action(self):
        doc = campaign_doc()
        doc["campaign"]["events"][0]["action"] = "explode"
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert error_path(excinfo) == "campaign.events[0].action"

    def test_unknown_population(self):
        doc = campaign_doc()
        doc["campaign"]["groups"]["ring"]["population"] = "martians"
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert error_path(excinfo) == "campaign.groups.ring.population"

    def test_fraction_and_count_exclusive(self):
        doc = campaign_doc()
        doc["campaign"]["groups"]["ring"]["count"] = 3
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert error_path(excinfo) == "campaign.groups.ring"

    def test_undeclared_group_reference(self):
        doc = campaign_doc()
        doc["campaign"]["events"][1]["group"] = "ghosts"
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert error_path(excinfo) == "campaign.events[1].group"

    def test_group_never_selected(self):
        doc = campaign_doc()
        del doc["campaign"]["events"][0]
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert "never resolved by a select event" in str(excinfo.value)

    def test_fractional_round_out_of_unit_interval(self):
        doc = campaign_doc()
        doc["campaign"]["events"][0]["round"] = 1.5
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert error_path(excinfo) == "campaign.events[0].round"

    def test_unknown_tier_name(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(tiers={"gigantic": {}}))
        assert error_path(excinfo) == "tiers.gigantic"

    def test_tier_field_error_path(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(tiers={"large": {"rounds": 0}}))
        assert error_path(excinfo) == "tiers.large.rounds"

    def test_scenario_and_campaign_are_exclusive(self):
        doc = campaign_doc()
        doc["scenario"] = {"catalog": "baseline"}
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert "exactly one" in str(excinfo.value)

    def test_one_of_scenario_or_campaign_is_required(self):
        doc = minimal_doc()
        del doc["scenario"]
        with pytest.raises(TemplateError):
            parse_template(doc)

    def test_knob_values_must_be_scalars(self):
        doc = minimal_doc()
        doc["scenario"]["knobs"] = {"ring_fraction": [0.1, 0.2]}
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert error_path(excinfo) == "scenario.knobs.ring_fraction"

    def test_slash_in_name_rejected(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(name="a/b"))
        assert error_path(excinfo) == "name"


class TestVersioning:
    def test_supported_versions_include_current(self):
        assert CURRENT_SCHEMA_VERSION in SUPPORTED_SCHEMA_VERSIONS

    def test_current_version_passes_through(self):
        doc = minimal_doc()
        assert migrate_document(doc) is doc

    def test_unsupported_version_rejected(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(schema_version=99))
        assert error_path(excinfo) == "schema_version"

    def test_missing_version_rejected(self):
        doc = minimal_doc()
        del doc["schema_version"]
        with pytest.raises(TemplateError) as excinfo:
            parse_template(doc)
        assert error_path(excinfo) == "schema_version"

    def test_v1_run_backend_is_dropped_whatever_its_value(self):
        for value in ("auto", "python", "vectorized", "gpu"):
            doc = minimal_doc(schema_version=1, run={"mechanism": "beta", "backend": value})
            template = parse_template(doc)
            assert template.schema_version == CURRENT_SCHEMA_VERSION
            assert template.run.mechanism == "beta"
            assert doc["run"]["backend"] == value  # the input is not mutated

    def test_v1_yaml_with_backend_auto_loads(self):
        text = (
            "schema_version: 1\n"
            "name: legacy\n"
            "run:\n"
            "  mechanism: eigentrust\n"
            "  backend: auto\n"
            "scenario:\n"
            "  catalog: collusion-ring\n"
        )
        template = template_from_text(text)
        assert template.run == template_from_text(text.replace("  backend: auto\n", "")).run

    def test_current_version_rejects_run_backend(self):
        with pytest.raises(TemplateError) as excinfo:
            parse_template(minimal_doc(run={"backend": "auto"}))
        assert error_path(excinfo) == "run.backend"


class TestTextLoading:
    def test_yaml_text(self):
        text = (
            "schema_version: 1\n"
            "name: example\n"
            "scenario:\n"
            "  catalog: collusion-ring\n"
        )
        template = template_from_text(text)
        assert template.name == "example"

    def test_json_text(self):
        template = template_from_text(json.dumps(minimal_doc()), format="json")
        assert template.catalog.name == "collusion-ring"

    def test_malformed_json(self):
        with pytest.raises(TemplateError) as excinfo:
            template_from_text("{not json", format="json")
        assert "malformed JSON" in str(excinfo.value)

    def test_malformed_yaml(self):
        with pytest.raises(TemplateError) as excinfo:
            template_from_text("a: [unclosed")
        assert "malformed YAML" in str(excinfo.value)

    def test_unknown_format(self):
        with pytest.raises(TemplateError):
            template_from_text("x", format="toml")

    def test_non_mapping_document(self):
        with pytest.raises(TemplateError) as excinfo:
            template_from_text("[1, 2]", format="json")
        assert "must be a mapping" in str(excinfo.value)


class TestTierNames:
    def test_canonical_order(self):
        assert TIER_NAMES == ("small", "medium", "large")

    def test_tier_names_sorted_canonically(self):
        doc = minimal_doc(tiers={"large": {}, "small": {}})
        assert parse_template(doc).tier_names() == ["small", "large"]
