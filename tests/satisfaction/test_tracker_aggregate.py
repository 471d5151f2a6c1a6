"""Unit tests for the satisfaction tracker and aggregation."""

from typing import ClassVar

import pytest

from repro.errors import ConfigurationError
from repro.satisfaction.aggregate import global_satisfaction, local_satisfaction
from repro.satisfaction.tracker import SatisfactionTracker


class TestSatisfactionTracker:
    def test_prior_before_observations(self):
        tracker = SatisfactionTracker(initial=0.6)
        assert tracker.satisfaction("nobody") == 0.6
        assert tracker.allocation_satisfaction("nobody") == 0.6
        assert tracker.windowed_satisfaction("nobody") == 0.6

    def test_first_observation_sets_level(self):
        tracker = SatisfactionTracker(alpha=0.2)
        tracker.observe("alice", 0.9)
        assert tracker.satisfaction("alice") == pytest.approx(0.9)

    def test_long_run_convergence(self):
        tracker = SatisfactionTracker(alpha=0.3)
        for _ in range(100):
            tracker.observe("alice", 0.8)
        assert tracker.satisfaction("alice") == pytest.approx(0.8, abs=1e-6)

    def test_ewma_emphasises_recent_regime(self):
        tracker = SatisfactionTracker(alpha=0.3)
        for _ in range(30):
            tracker.observe("alice", 1.0)
        for _ in range(30):
            tracker.observe("alice", 0.0)
        assert tracker.satisfaction("alice") < 0.1

    def test_allocation_satisfaction_tracks_only_imposed(self):
        tracker = SatisfactionTracker(alpha=0.5)
        tracker.observe("prov", 1.0, imposed=False)
        tracker.observe("prov", 0.0, imposed=True)
        assert tracker.allocation_satisfaction("prov") == pytest.approx(0.0)
        assert tracker.satisfaction("prov") == pytest.approx(0.5)

    def test_allocation_satisfaction_falls_back_to_satisfaction(self):
        tracker = SatisfactionTracker()
        tracker.observe("alice", 0.9)
        assert tracker.allocation_satisfaction("alice") == tracker.satisfaction("alice")

    def test_windowed_satisfaction_bounded_window(self):
        tracker = SatisfactionTracker(window=3)
        for value in (0.0, 0.0, 1.0, 1.0, 1.0):
            tracker.observe("alice", value)
        assert tracker.windowed_satisfaction("alice") == 1.0

    def test_dissatisfied_listing(self):
        tracker = SatisfactionTracker()
        tracker.observe("happy", 0.9)
        tracker.observe("sad", 0.1)
        assert tracker.dissatisfied(threshold=0.4) == ["sad"]

    def test_observation_validation(self):
        tracker = SatisfactionTracker()
        with pytest.raises(ConfigurationError):
            tracker.observe("alice", 1.5)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            SatisfactionTracker(alpha=2.0)
        with pytest.raises(ConfigurationError):
            SatisfactionTracker(window=0)

    def test_all_satisfactions_and_counts(self):
        tracker = SatisfactionTracker()
        tracker.observe("alice", 0.9)
        tracker.observe("bob", 0.4)
        assert set(tracker.all_satisfactions()) == {"alice", "bob"}
        assert tracker.observation_count("alice") == 1
        assert tracker.observation_count("nobody") == 0

    def test_reset(self):
        tracker = SatisfactionTracker()
        tracker.observe("alice", 0.9)
        tracker.reset()
        assert tracker.participants() == []


class TestAggregation:
    SATISFACTIONS: ClassVar[dict[str, float]] = {"a": 0.9, "b": 0.7, "c": 0.2}

    def test_global_satisfaction_blends_mean_and_minimum(self):
        value = global_satisfaction(self.SATISFACTIONS, fairness_weight=0.5)
        assert value == pytest.approx(0.5 * 0.6 + 0.5 * 0.2)
        assert global_satisfaction({}) == 0.0

    def test_global_satisfaction_weighted(self):
        weighted = global_satisfaction(
            self.SATISFACTIONS, weights={"a": 10.0, "b": 0.0, "c": 0.0}, fairness_weight=0.0
        )
        assert weighted == pytest.approx(0.9)

    def test_global_satisfaction_zero_weights_fall_back_to_mean(self):
        value = global_satisfaction(
            self.SATISFACTIONS, weights={"a": 0.0, "b": 0.0, "c": 0.0}, fairness_weight=0.0
        )
        assert value == pytest.approx(0.6)

    def test_fairness_penalizes_starved_users(self):
        balanced = {"a": 0.6, "b": 0.6}
        unbalanced = {"a": 1.0, "b": 0.2}
        assert global_satisfaction(balanced) > global_satisfaction(unbalanced)

    def test_local_satisfaction_uses_neighbourhood(self):
        value = local_satisfaction("a", self.SATISFACTIONS, ["b", "c"])
        assert value == pytest.approx(0.6)
        assert local_satisfaction("a", self.SATISFACTIONS, []) == 0.9

    def test_local_satisfaction_unknown_user(self):
        assert local_satisfaction("zz", {}, ["a"]) == 0.5
