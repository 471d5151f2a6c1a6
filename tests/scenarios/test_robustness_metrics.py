"""Unit tests for the robustness metrics and the accuracy primitives."""

from types import SimpleNamespace

import pytest

from repro.reputation.accuracy import spearman_rank_correlation
from repro.scenarios.metrics import NEVER, RoundObservation, ScenarioTrace, evaluate_trace
from repro.simulation.metrics import MetricsCollector
from repro.simulation.peer import Peer, PeerDirectory
from repro.socialnet.user import User


def observation(round_index, separation, malicious_rate=0.2):
    return RoundObservation(
        round_index=round_index,
        honest_mean=0.5 + separation / 2,
        attacker_mean=0.5 - separation / 2,
        separation=separation,
        malicious_rate=malicious_rate,
        online_peers=10,
    )


class TestSpearman:
    def test_perfect_agreement(self):
        scores = {"a": 0.1, "b": 0.5, "c": 0.9}
        truth = {"a": 0.2, "b": 0.4, "c": 0.8}
        assert spearman_rank_correlation(scores, truth) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        scores = {"a": 0.9, "b": 0.5, "c": 0.1}
        truth = {"a": 0.2, "b": 0.4, "c": 0.8}
        assert spearman_rank_correlation(scores, truth) == pytest.approx(-1.0)

    def test_constant_side_returns_zero(self):
        scores = {"a": 0.5, "b": 0.5, "c": 0.5}
        truth = {"a": 0.1, "b": 0.4, "c": 0.8}
        assert spearman_rank_correlation(scores, truth) == 0.0

    def test_too_few_peers_returns_zero(self):
        assert spearman_rank_correlation({"a": 1.0}, {"a": 1.0}) == 0.0
        assert spearman_rank_correlation({}, {}) == 0.0

    def test_ties_get_average_ranks(self):
        # x = (1, 2.5, 2.5, 4), y = (1, 2, 3, 4): rho = 0.9486...
        scores = {"a": 0.1, "b": 0.5, "c": 0.5, "d": 0.9}
        truth = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        rho = spearman_rank_correlation(scores, truth)
        assert rho == pytest.approx(0.9486832980505138)

    def test_ignores_peers_without_ground_truth(self):
        scores = {"a": 0.1, "b": 0.9, "ghost": 0.5}
        truth = {"a": 0.1, "b": 0.9}
        assert spearman_rank_correlation(scores, truth) == pytest.approx(1.0)


def observe_one_round(users, scores):
    """The observation a trace records for one round over these users."""
    metrics = MetricsCollector()
    metrics.start_round(0, online_peers=len(users))
    metrics.end_round()
    simulator = SimpleNamespace(
        reputation=None,
        directory=PeerDirectory([Peer(user=user) for user in users]),
        metrics=metrics,
    )
    trace = ScenarioTrace()
    trace.on_round_end(simulator, 0, scores)
    return trace.observations[0]


class TestScenarioTrace:
    def test_separation_is_the_class_mean_gap(self):
        users = [
            User(user_id="good", honesty=0.9),
            User(user_id="bad", honesty=0.1),
            User(user_id="worse", honesty=0.2),
        ]
        observation = observe_one_round(users, {"good": 0.8, "bad": 0.2, "worse": 0.4})
        assert observation.honest_mean == 0.8
        assert observation.attacker_mean == pytest.approx(0.3)
        assert observation.separation == observation.honest_mean - observation.attacker_mean

    def test_empty_class_gives_zero_separation(self):
        honest_only = observe_one_round([User(user_id="good", honesty=0.9)], {"good": 0.8})
        assert honest_only.separation == 0.0
        assert (honest_only.honest_mean, honest_only.attacker_mean) == (0.8, 0.0)
        # A peer the mechanism has no score for counts at the default.
        attackers_only = observe_one_round([User(user_id="bad", honesty=0.1)], {})
        assert attackers_only.separation == 0.0
        assert (attackers_only.honest_mean, attackers_only.attacker_mean) == (0.0, 0.5)


class TestEvaluateTrace:
    def test_empty_trace(self):
        metrics = evaluate_trace([], (0, 0), final_rank_correlation=0.0)
        assert metrics.time_to_detect == NEVER
        assert metrics.time_to_recover == NEVER
        assert metrics.final_separation == 0.0

    def test_detection_and_recovery_timing(self):
        observations = [
            observation(0, 0.3),
            observation(1, 0.3),
            # attack window [2, 5): separation collapses, then detection
            observation(2, 0.0),
            observation(3, 0.05),
            observation(4, 0.15),
            # post-attack: recovery to 80% of the 0.3 baseline (0.24)
            observation(5, 0.1),
            observation(6, 0.25),
            observation(7, 0.3),
        ]
        metrics = evaluate_trace(
            observations, (2, 5), detect_threshold=0.1, final_rank_correlation=0.6
        )
        assert metrics.baseline_separation == pytest.approx(0.3)
        assert metrics.time_to_detect == 2  # round 4 is 2 rounds after start
        assert metrics.time_to_recover == 1  # round 6 is 1 round after end
        assert metrics.attack_separation == pytest.approx((0.0 + 0.05 + 0.15) / 3)
        assert metrics.post_separation == pytest.approx((0.1 + 0.25 + 0.3) / 3)
        assert metrics.final_separation == pytest.approx(0.3)
        assert metrics.final_rank_correlation == 0.6
        assert metrics.detected and metrics.recovered

    def test_never_detected_or_recovered(self):
        observations = [observation(i, 0.01) for i in range(8)]
        metrics = evaluate_trace(
            observations, (2, 5), detect_threshold=0.1, final_rank_correlation=0.0
        )
        assert metrics.time_to_detect == NEVER
        assert metrics.time_to_recover == NEVER
        assert not metrics.detected and not metrics.recovered

    def test_recovery_target_never_below_detect_threshold(self):
        # No pre-attack baseline: recovery still requires the detect level.
        observations = [observation(0, 0.0), observation(1, 0.05), observation(2, 0.2)]
        metrics = evaluate_trace(
            observations, (0, 1), detect_threshold=0.1, final_rank_correlation=0.0
        )
        assert metrics.baseline_separation == 0.0
        assert metrics.time_to_recover == 1  # round 2, not the trivial round 1

    def test_window_after_run_end_means_never(self):
        observations = [observation(i, 0.5) for i in range(4)]
        metrics = evaluate_trace(observations, (10, 12), final_rank_correlation=0.0)
        # Detection anchors at round >= 10, which the run never reached.
        assert metrics.time_to_detect == NEVER
        assert metrics.time_to_recover == NEVER
        assert metrics.baseline_separation == pytest.approx(0.5)
