"""Unit tests for the simulation metrics collector."""

import pytest

from repro.simulation.metrics import MetricsCollector, RoundMetrics


class TestRoundMetrics:
    def test_rates_with_no_activity(self):
        metrics = RoundMetrics(round_index=0)
        assert metrics.success_rate == 0.0
        assert metrics.malicious_rate == 0.0
        assert metrics.disclosure_rate == 0.0
        assert metrics.honest_feedback_rate == 0.0

    def test_rates(self):
        metrics = RoundMetrics(
            round_index=0,
            transactions=4,
            successes=3,
            failures=1,
            malicious_provider_transactions=1,
            feedback_generated=4,
            feedback_disclosed=2,
            truthful_feedback=3,
        )
        assert metrics.success_rate == 0.75
        assert metrics.malicious_rate == 0.25
        assert metrics.disclosure_rate == 0.5
        assert metrics.honest_feedback_rate == 0.75


class TestMetricsCollector:
    def build(self) -> MetricsCollector:
        collector = MetricsCollector()
        collector.start_round(0, online_peers=5)
        collector.record_transaction(succeeded=True, provider_honest=True)
        collector.record_transaction(succeeded=False, provider_honest=False)
        collector.record_feedback(truthful=True, disclosed=True)
        collector.record_feedback(truthful=False, disclosed=False)
        collector.end_round()
        collector.start_round(1, online_peers=5)
        collector.record_transaction(succeeded=True, provider_honest=True)
        collector.record_feedback(truthful=True, disclosed=True)
        collector.end_round()
        return collector

    def test_round_accounting(self):
        collector = self.build()
        assert len(collector.rounds) == 2
        assert collector.rounds[0].transactions == 2
        assert collector.rounds[1].transactions == 1

    def test_overall_rates(self):
        collector = self.build()
        assert collector.total_transactions == 3
        assert collector.overall_success_rate == pytest.approx(2 / 3)
        assert collector.overall_malicious_rate == pytest.approx(1 / 3)
        assert collector.overall_disclosure_rate == pytest.approx(2 / 3)
        assert collector.overall_honest_feedback_rate == pytest.approx(2 / 3)

    def test_series_and_tails(self):
        collector = self.build()
        assert collector.success_rate_series() == [0.5, 1.0]
        assert collector.malicious_rate_series() == [0.5, 0.0]
        assert collector.tail_success_rate(window=1) == 1.0
        assert collector.tail_malicious_rate(window=1) == 0.0

    def test_empty_collector(self):
        collector = MetricsCollector()
        assert collector.total_transactions == 0
        assert collector.overall_success_rate == 0.0
        assert collector.tail_success_rate() == 0.0
