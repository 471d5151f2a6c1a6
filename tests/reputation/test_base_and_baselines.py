"""Unit tests for the ReputationSystem base class and the two baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation.average import SimpleAverageReputation
from repro.reputation.base import ScoreView
from repro.reputation.beta import BetaReputation
from repro.errors import ConfigurationError
from tests.conftest import make_feedback


class TestBaseBehaviour:
    def test_unknown_peer_gets_default_score(self):
        system = SimpleAverageReputation(default_score=0.4)
        assert system.score("stranger") == 0.4

    def test_score_refreshes_lazily_after_new_evidence(self):
        system = SimpleAverageReputation()
        system.record_feedback(make_feedback("bob", 1.0, transaction_id=1))
        assert system.score("bob") == 1.0
        system.record_feedback(make_feedback("bob", 0.0, transaction_id=2))
        assert system.score("bob") == 0.5

    def test_ranking_sorted_by_score_then_name(self):
        system = SimpleAverageReputation()
        system.record_feedback(make_feedback("bob", 1.0, transaction_id=1))
        system.record_feedback(make_feedback("carol", 0.0, transaction_id=2))
        system.record_feedback(make_feedback("dave", 1.0, transaction_id=3))
        assert system.ranking() == ["bob", "dave", "carol"]

    def test_ranking_ties_and_negative_zero_break_on_the_peer_id(self):
        view = ScoreView({"b": 0.5, "e": 1.0, "c": -0.0, "a": 0.5, "aa": 0.0, "d": -0.0})
        assert view.ranking() == ["e", "a", "b", "aa", "c", "d"]
        assert view.top(3) == [("e", 1.0), ("a", 0.5), ("b", 0.5)]

    @given(
        scores=st.dictionaries(
            st.text(max_size=3),
            st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(allow_nan=False)),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_ranking_is_the_descending_score_then_id_order(self, scores):
        view = ScoreView(scores)
        assert view.ranking() == sorted(scores, key=lambda peer: (-scores[peer], peer))

    def test_known_peers_includes_raters(self):
        system = SimpleAverageReputation()
        system.record_feedback(make_feedback("bob", 1.0, rater="alice"))
        assert system.known_peers() == ["alice", "bob"]

    def test_reset_clears_everything(self):
        system = SimpleAverageReputation()
        system.record_feedback(make_feedback("bob", 1.0))
        system.reset()
        assert system.evidence_count == 0
        assert system.score("bob") == system.default_score

    def test_refresh_returns_copy(self):
        system = SimpleAverageReputation()
        system.record_feedback(make_feedback("bob", 1.0))
        scores = system.refresh()
        scores["bob"] = 0.0
        assert system.score("bob") == 1.0


class TestSimpleAverage:
    def test_average_of_ratings(self):
        system = SimpleAverageReputation()
        for index, rating in enumerate([1.0, 1.0, 0.0, 1.0]):
            system.record_feedback(make_feedback("bob", rating, transaction_id=index))
        assert system.score("bob") == pytest.approx(0.75)

    def test_ignores_rater_identity(self):
        identified = SimpleAverageReputation()
        anonymous = SimpleAverageReputation()
        for index, rating in enumerate([1.0, 0.0, 1.0]):
            identified.record_feedback(
                make_feedback("bob", rating, rater=f"r{index}", transaction_id=index)
            )
            anonymous.record_feedback(
                make_feedback("bob", rating, rater=None, transaction_id=index)
            )
        assert identified.score("bob") == anonymous.score("bob")

    def test_low_information_requirement(self):
        assert SimpleAverageReputation.information_requirement < 0.5


class TestBetaReputation:
    def test_prior_pulls_towards_half(self):
        system = BetaReputation()
        system.record_feedback(make_feedback("bob", 1.0, transaction_id=1))
        # One positive report: (1+1)/(1+1+1) = 2/3, not 1.0.
        assert system.score("bob") == pytest.approx(2 / 3)

    def test_converges_with_evidence(self):
        system = BetaReputation()
        for index in range(50):
            system.record_feedback(make_feedback("bob", 1.0, transaction_id=index))
        assert system.score("bob") > 0.95

    def test_negative_evidence_lowers_score(self):
        system = BetaReputation()
        for index in range(10):
            system.record_feedback(make_feedback("bob", 0.0, transaction_id=index))
        assert system.score("bob") < 0.2

    def test_forgetting_tracks_traitors(self):
        remembering = BetaReputation(forgetting=1.0)
        forgetting = BetaReputation(forgetting=0.7)
        for system in (remembering, forgetting):
            for index in range(20):
                system.record_feedback(
                    make_feedback("traitor", 1.0, transaction_id=index, time=index)
                )
            for index in range(20, 30):
                system.record_feedback(
                    make_feedback("traitor", 0.0, transaction_id=index, time=index)
                )
        assert forgetting.score("traitor") < remembering.score("traitor")

    def test_invalid_forgetting_rejected(self):
        with pytest.raises(ConfigurationError):
            BetaReputation(forgetting=1.5)
