"""The shipped template library: parity, equivalence and tier smoke runs."""

import pytest

from repro.scenarios.catalog import BUILTIN_SCENARIOS
from repro.scenarios.schema import (
    CURRENT_SCHEMA_VERSION,
    compile_template,
    discover_templates,
    find_template,
    load_template,
    template_record_json,
    verify_template,
)
from repro.scenarios.schema.model import parse_template, template_to_dict

TEMPLATES = {
    load_template(path).name: load_template(path) for path in discover_templates()
}


class TestLibraryShape:
    def test_every_catalog_scenario_has_a_template(self):
        assert BUILTIN_SCENARIOS <= set(TEMPLATES)

    def test_library_ships_a_campaign_example(self):
        assert any(t.campaign is not None for t in TEMPLATES.values())

    def test_every_template_declares_current_schema_version(self):
        for template in TEMPLATES.values():
            assert template.schema_version == CURRENT_SCHEMA_VERSION

    def test_every_template_declares_all_tiers(self):
        for template in TEMPLATES.values():
            assert template.tier_names() == ["small", "medium", "large"]

    def test_find_template_by_name(self):
        assert find_template("marketplace").name == "marketplace"

    def test_round_trip_is_identity(self):
        for template in TEMPLATES.values():
            assert parse_template(template_to_dict(template)) == template


class TestCompilation:
    @pytest.mark.parametrize("tier", (None, "small", "medium", "large"))
    def test_every_template_compiles_at_every_tier(self, tier):
        for template in TEMPLATES.values():
            compiled = compile_template(template, tier)
            assert compiled.config.rounds >= 1

    def test_medium_tier_matches_robustness_reference(self):
        compiled = compile_template(TEMPLATES["collusion-ring"], "medium")
        config = compiled.config
        assert (config.n_users, config.rounds, config.seed) == (40, 30, 0)
        assert config.malicious_fraction == 0.25
        assert (config.detect_threshold, config.recovery_fraction) == (0.1, 0.8)

    def test_long_horizon_drift_large_tier_is_10k_rounds(self):
        compiled = compile_template(TEMPLATES["long-horizon-drift"], "large")
        assert compiled.config.rounds == 10000


class TestGoldenRecords:
    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_catalog_templates_byte_identical_to_programmatic_path(self, name):
        result = verify_template(TEMPLATES[name], "small")
        assert result.mode == "catalog-equivalence"
        assert result.ok, result.detail

    def test_campaign_template_self_consistent(self):
        result = verify_template(TEMPLATES["double-cross"], "small")
        assert result.mode == "self-consistency"
        assert result.ok, result.detail

    def test_v1_document_with_run_backend_is_byte_identical(self):
        document = template_to_dict(TEMPLATES["double-cross"])
        legacy = {
            **document,
            "schema_version": 1,
            "run": {**document["run"], "backend": "python"},
        }
        legacy_json = template_record_json(compile_template(parse_template(legacy), "small"))
        current_json = template_record_json(compile_template(TEMPLATES["double-cross"], "small"))
        assert legacy_json == current_json

    def test_small_tier_smoke_runs_produce_metrics(self):
        for name in ("marketplace", "flash-crowd", "regional-partition"):
            record_json = template_record_json(compile_template(TEMPLATES[name], "small"))
            assert f'"{name}.eigentrust.separation_attack"' in record_json
