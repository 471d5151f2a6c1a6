"""Integration tests for the substrate-validation experiments (E-R1, E-P1, E-S1)."""

import pytest

from repro.experiments import privacy_eval, reputation_eval, satisfaction_eval
from repro.privacy.oecd import OecdPrinciple


@pytest.fixture(scope="module")
def reputation_result():
    return reputation_eval.run(
        mechanisms=("none", "average", "beta", "eigentrust"),
        malicious_fractions=(0.3,),
        n_users=30,
        rounds=15,
        seed=2,
    )


@pytest.fixture(scope="module")
def privacy_result():
    return privacy_eval.run(n_users=25, n_requests=200, breach_rate=0.1, seed=2)


@pytest.fixture(scope="module")
def satisfaction_result():
    return satisfaction_eval.run(n_providers=8, n_consumers=15, rounds=20, seed=2)


class TestReputationEval:
    def test_grid_is_complete(self, reputation_result):
        assert len(reputation_result.outcomes) == 4

    def test_every_mechanism_beats_the_baseline(self, reputation_result):
        improvements = reputation_result.improvement_over_baseline()
        assert set(improvements) == {"average", "beta", "eigentrust"}
        assert all(value > 0 for value in improvements.values())

    def test_mechanisms_have_informative_rankings(self, reputation_result):
        for outcome in reputation_result.outcomes:
            if outcome.mechanism == "none":
                assert outcome.ranking_accuracy == 0.5
            else:
                assert outcome.ranking_accuracy > 0.5

    def test_report_renders(self, reputation_result):
        text = reputation_eval.report(reputation_result)
        assert "E-R1" in text
        assert "eigentrust" in text


class TestPrivacyEval:
    def test_requests_are_accounted_for(self, privacy_result):
        assert privacy_result.requests == privacy_result.granted + privacy_result.denied
        assert privacy_result.breaches_injected > 0

    def test_some_requests_denied_with_reasons(self, privacy_result):
        assert privacy_result.denied > 0
        assert privacy_result.denial_reasons

    def test_breaches_reduce_policy_respect(self, privacy_result):
        assert privacy_result.policy_respect < 1.0
        assert privacy_result.compliance.scores[OecdPrinciple.SECURITY_SAFEGUARDS] < 1.0
        clean = privacy_eval.run(n_users=25, n_requests=200, breach_rate=0.0, seed=2)
        assert clean.policy_respect == 1.0
        assert clean.policy_respect > privacy_result.policy_respect

    def test_compliance_report_complete(self, privacy_result):
        assert len(privacy_result.compliance.scores) == 8
        assert 0.5 < privacy_result.compliance.overall <= 1.0

    def test_report_renders(self, privacy_result):
        text = privacy_eval.report(privacy_result)
        assert "OECD" in text


class TestSatisfactionEval:
    def test_every_strategy_evaluated(self, satisfaction_result):
        names = {outcome.strategy for outcome in satisfaction_result.outcomes}
        assert names == {"random", "capacity", "quality", "reputation", "satisfaction-balanced"}

    def test_satisfaction_balanced_has_best_minimum_provider_satisfaction(
        self, satisfaction_result
    ):
        by_strategy = satisfaction_result.by_strategy()
        balanced = by_strategy["satisfaction-balanced"]
        for name, outcome in by_strategy.items():
            if name == "satisfaction-balanced":
                continue
            assert balanced.min_provider_satisfaction >= outcome.min_provider_satisfaction

    def test_quality_strategy_has_best_quality_but_imposes_more(self, satisfaction_result):
        by_strategy = satisfaction_result.by_strategy()
        quality = by_strategy["quality"]
        balanced = by_strategy["satisfaction-balanced"]
        assert quality.mean_quality >= balanced.mean_quality
        assert quality.imposed_fraction > balanced.imposed_fraction
        random_strategy = by_strategy["random"]
        assert quality.mean_consumer_satisfaction > random_strategy.mean_consumer_satisfaction

    def test_values_bounded(self, satisfaction_result):
        for outcome in satisfaction_result.outcomes:
            assert 0.0 <= outcome.mean_consumer_satisfaction <= 1.0
            assert 0.0 <= outcome.imposed_fraction <= 1.0

    def test_report_renders(self, satisfaction_result):
        assert "E-S1" in satisfaction_eval.report(satisfaction_result)
