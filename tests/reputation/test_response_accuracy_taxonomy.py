"""Unit tests for response policies, accuracy measures and the taxonomy."""

import random
from typing import ClassVar

import pytest

from repro.errors import ConfigurationError
from repro.reputation.accuracy import (
    classification_accuracy,
    mean_absolute_error,
    pairwise_ranking_accuracy,
    reputation_power,
)
from repro.reputation.registry import REPUTATION_FACTORIES, make_reputation_system
from repro.reputation.response import (
    ProbabilisticSelection,
    SelectBest,
    ThresholdBan,
)
from repro.reputation.taxonomy import SYSTEM_TAXONOMY, taxonomy_for


SCORES = {"good": 0.9, "ok": 0.6, "bad": 0.2}


class TestSelectBest:
    def test_picks_highest_score(self):
        assert SelectBest().select(["good", "ok", "bad"], SCORES) == "good"

    def test_tie_broken_by_name(self):
        assert SelectBest().select(["b", "a"], {"a": 0.5, "b": 0.5}) == "b"

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            SelectBest().select([], SCORES)


class TestProbabilisticSelection:
    def test_prefers_reputable_candidates_statistically(self):
        policy = ProbabilisticSelection(floor=0.01)
        rng = random.Random(1)
        picks = [policy.select(["good", "bad"], SCORES, rng) for _ in range(500)]
        assert picks.count("good") > picks.count("bad")

    def test_floor_keeps_everyone_selectable(self):
        policy = ProbabilisticSelection(floor=0.5)
        rng = random.Random(2)
        picks = {policy.select(["good", "bad"], SCORES, rng) for _ in range(200)}
        assert picks == {"good", "bad"}

    def test_zero_scores_fall_back_to_uniform(self):
        policy = ProbabilisticSelection(floor=0.0)
        rng = random.Random(3)
        pick = policy.select(["a", "b"], {"a": 0.0, "b": 0.0}, rng)
        assert pick in {"a", "b"}


class TestThresholdBan:
    def test_bans_below_threshold(self):
        policy = ThresholdBan(threshold=0.5)
        assert policy.acceptable(["good", "ok", "bad"], SCORES) == ["good", "ok"]
        assert policy.select(["good", "ok", "bad"], SCORES) == "good"

    def test_all_banned_falls_back_to_least_bad(self):
        policy = ThresholdBan(threshold=0.95)
        assert policy.select(["ok", "bad"], SCORES) == "ok"


class TestAccuracyMeasures:
    GROUND_TRUTH: ClassVar[dict[str, float]] = {"good": 0.9, "ok": 0.8, "bad": 0.1}

    def test_perfect_ranking(self):
        assert pairwise_ranking_accuracy(SCORES, self.GROUND_TRUTH) == 1.0

    def test_inverted_ranking(self):
        inverted = {"good": 0.1, "ok": 0.2, "bad": 0.9}
        assert pairwise_ranking_accuracy(inverted, self.GROUND_TRUTH) == 0.0

    def test_ties_count_half(self):
        flat = {"good": 0.5, "ok": 0.5, "bad": 0.5}
        assert pairwise_ranking_accuracy(flat, self.GROUND_TRUTH) == 0.5

    def test_single_class_returns_chance(self):
        assert pairwise_ranking_accuracy({"good": 0.9}, {"good": 0.9}) == 0.5

    def test_classification_accuracy(self):
        assert classification_accuracy(SCORES, self.GROUND_TRUTH) == 1.0
        assert classification_accuracy(
            {"good": 0.2, "ok": 0.2, "bad": 0.2}, self.GROUND_TRUTH
        ) == pytest.approx(1 / 3)

    def test_mean_absolute_error(self):
        assert mean_absolute_error(self.GROUND_TRUTH, self.GROUND_TRUTH) == 0.0
        assert mean_absolute_error({}, self.GROUND_TRUTH) == 1.0

    def test_reputation_power_bounds(self):
        assert reputation_power(SCORES, self.GROUND_TRUTH) > 0.7
        assert reputation_power({}, self.GROUND_TRUTH) <= 0.25
        assert reputation_power({}, {}) == 0.0

    def test_reputation_power_penalizes_low_coverage(self):
        full = reputation_power(SCORES, self.GROUND_TRUTH)
        partial = reputation_power({"good": 0.9, "bad": 0.1}, self.GROUND_TRUTH)
        assert partial < full


class TestRegistryAndTaxonomy:
    def test_factory_creates_every_registered_mechanism(self):
        for name in REPUTATION_FACTORIES:
            system = make_reputation_system(name)
            assert system.name == name

    def test_factory_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            make_reputation_system("pagerank-of-trust")

    def test_taxonomy_covers_every_factory_mechanism(self):
        for name in REPUTATION_FACTORIES:
            assert name in SYSTEM_TAXONOMY

    def test_taxonomy_lookup(self):
        record = taxonomy_for("eigentrust")
        assert record.identity_required
        assert record.collusion_resistant

    def test_taxonomy_unknown_name(self):
        with pytest.raises(ValueError):
            taxonomy_for("unknown")

    def test_identity_free_mechanisms_require_less_information(self):
        for name, record in SYSTEM_TAXONOMY.items():
            if name in REPUTATION_FACTORIES and not record.identity_required:
                assert REPUTATION_FACTORIES[name]().information_requirement <= 0.5
