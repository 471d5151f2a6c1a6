"""Unit tests for accuracy measures and the mechanism registry."""

from typing import ClassVar

import pytest

from repro.reputation.accuracy import (
    mean_absolute_error,
    pairwise_ranking_accuracy,
    reputation_power,
)
from repro.reputation.registry import REPUTATION_FACTORIES, make_reputation_system


SCORES = {"good": 0.9, "ok": 0.6, "bad": 0.2}


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

    def test_identity_free_mechanisms_require_less_information(self):
        for name in ("average", "beta"):
            assert REPUTATION_FACTORIES[name]().information_requirement <= 0.5
