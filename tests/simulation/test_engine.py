"""Integration-grade tests for the InteractionSimulator."""

import pytest

from repro.errors import ConfigurationError
from repro.reputation.beta import BetaReputation
from repro.simulation.adversary import WhitewasherBehavior
from repro.simulation.churn import ChurnModel
from repro.simulation.engine import InteractionSimulator, SimulationConfig
from repro.socialnet.graph import SocialGraph
from repro.socialnet.user import User


class TestSimulationConfig:
    def test_defaults_valid(self):
        SimulationConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(rounds=-1)
        with pytest.raises(ConfigurationError):
            SimulationConfig(sharing_level=1.5)
        with pytest.raises(ConfigurationError):
            SimulationConfig(interactions_per_peer=-0.5)
        with pytest.raises(ConfigurationError):
            SimulationConfig(collusion_fraction=2.0)


class TestSimulatorBasics:
    def test_needs_at_least_two_peers(self):
        graph = SocialGraph([User(user_id="solo")])
        with pytest.raises(ConfigurationError):
            InteractionSimulator(graph)

    def test_run_produces_transactions_and_feedback(self, small_graph):
        result = InteractionSimulator(small_graph, SimulationConfig(rounds=10, seed=1)).run()
        assert len(result.transactions) > 0
        assert len(result.feedbacks) == len(result.transactions)
        assert len(result.metrics.rounds) == 10

    def test_deterministic_given_seed(self, small_graph):
        config = SimulationConfig(rounds=8, seed=4)
        first = InteractionSimulator(small_graph, config).run()
        second = InteractionSimulator(small_graph, SimulationConfig(rounds=8, seed=4)).run()
        assert [t.provider for t in first.transactions] == [t.provider for t in second.transactions]
        assert len(first.disclosed_feedbacks) == len(second.disclosed_feedbacks)

    def test_transactions_respect_social_graph(self, small_graph):
        result = InteractionSimulator(small_graph, SimulationConfig(rounds=5, seed=2)).run()
        for transaction in result.transactions:
            consumer = result.directory.get(transaction.consumer)
            provider = result.directory.get(transaction.provider)
            assert small_graph.are_connected(consumer.base_id, provider.base_id)

    def test_ground_truth_covers_population(self, small_graph):
        result = InteractionSimulator(small_graph, SimulationConfig(rounds=3)).run()
        assert set(result.ground_truth_honesty) == set(small_graph.user_ids())

    def test_zero_rounds(self, small_graph):
        result = InteractionSimulator(small_graph, SimulationConfig(rounds=0)).run()
        assert result.transactions == []
        assert result.metrics.rounds == []


class TestSharingLevel:
    def test_zero_sharing_discloses_nothing(self, small_graph):
        result = InteractionSimulator(
            small_graph, SimulationConfig(rounds=8, sharing_level=0.0, seed=1)
        ).run()
        assert result.disclosed_feedbacks == []
        assert result.disclosure_rate == 0.0

    def test_higher_sharing_discloses_more(self, small_graph):
        low = InteractionSimulator(
            small_graph, SimulationConfig(rounds=10, sharing_level=0.2, seed=1)
        ).run()
        high = InteractionSimulator(
            small_graph, SimulationConfig(rounds=10, sharing_level=1.0, seed=1)
        ).run()
        assert high.disclosure_rate > low.disclosure_rate


class TestAnonymousFeedback:
    def test_anonymous_feedback_has_no_rater(self, small_graph):
        result = InteractionSimulator(
            small_graph, SimulationConfig(rounds=5, anonymous_feedback=True, seed=1)
        ).run()
        assert all(feedback.rater is None for feedback in result.feedbacks)

    def test_identified_feedback_has_rater(self, small_graph):
        result = InteractionSimulator(
            small_graph, SimulationConfig(rounds=5, anonymous_feedback=False, seed=1)
        ).run()
        assert all(feedback.rater is not None for feedback in result.feedbacks)


class TestReputationIntegration:
    def test_reputation_receives_only_disclosed_feedback(self, small_graph):
        reputation = BetaReputation()
        result = InteractionSimulator(
            small_graph,
            SimulationConfig(rounds=10, sharing_level=0.5, seed=3),
            reputation=reputation,
        ).run()
        assert reputation.evidence_count == len(result.disclosed_feedbacks)

    def test_reputation_selection_reduces_malicious_rate(self, adversarial_graph):
        config = SimulationConfig(rounds=25, seed=5)
        baseline = InteractionSimulator(adversarial_graph, config).run()
        with_reputation = InteractionSimulator(
            adversarial_graph, SimulationConfig(rounds=25, seed=5), reputation=BetaReputation()
        ).run()
        assert (
            with_reputation.metrics.tail_malicious_rate()
            < baseline.metrics.tail_malicious_rate()
        )

    def test_disclosure_observer_called_per_disclosure(self, small_graph):
        seen = []
        result = InteractionSimulator(
            small_graph,
            SimulationConfig(rounds=6, seed=2),
            reputation=BetaReputation(),
            disclosure_observer=lambda feedback, consumer, provider: seen.append(feedback),
        ).run()
        assert len(seen) == len(result.disclosed_feedbacks)


    def test_each_round_reaches_the_mechanism_as_one_batch(self, small_graph):
        """A mechanism with only ``record_batch`` and ``score`` (no
        ``refresh``) receives every round's disclosed reports in one batch
        at the round's end."""

        class Counting:
            def __init__(self):
                self.batches = []

            def record_batch(self, batch):
                self.batches.append([batch.feedback(row) for row in range(len(batch))])

            def score(self, peer_id):
                return 0.5

        reputation = Counting()
        config = SimulationConfig(rounds=4, sharing_level=0.7, seed=4)
        simulator = InteractionSimulator(small_graph, config, reputation=reputation)
        for rounds in range(1, 5):
            simulator.run_until(rounds)
            disclosed = simulator.result().disclosed_feedbacks
            assert [report for batch in reputation.batches for report in batch] == disclosed
            assert len(reputation.batches) == rounds
            assert {report.time for report in reputation.batches[-1]} == {rounds - 1}


class TestAdversaries:
    def test_whitewashers_change_identity(self, adversarial_graph):
        config = SimulationConfig(rounds=25, whitewasher_fraction=1.0, seed=6)
        simulator = InteractionSimulator(adversarial_graph, config, reputation=BetaReputation())
        result = simulator.run()
        whitewashed = [
            peer
            for peer in result.directory.peers()
            if isinstance(peer.behavior, WhitewasherBehavior) and peer.identity_generation > 0
        ]
        assert whitewashed, "at least one whitewasher should have shed its identity"

    def test_collusion_ring_is_created(self, adversarial_graph):
        simulator = InteractionSimulator(
            adversarial_graph,
            SimulationConfig(rounds=1, collusion_fraction=1.0, seed=7),
        )
        rings = [
            peer.behavior.ring
            for peer in simulator.directory.peers()
            if hasattr(peer.behavior, "ring")
        ]
        assert rings and all(len(ring) >= 1 for ring in rings)


class TestChurn:
    def test_churn_reduces_online_population(self, small_graph):
        config = SimulationConfig(
            rounds=5,
            churn=ChurnModel(leave_probability=0.5, return_probability=0.0),
            seed=8,
        )
        result = InteractionSimulator(small_graph, config).run()
        assert result.metrics.rounds[-1].online_peers < len(small_graph)
