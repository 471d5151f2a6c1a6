"""Unit tests for PowerTrust and the trust overlay network."""

import pytest

from repro.errors import ConfigurationError
from repro.reputation.gathering import FeedbackStore
from repro.reputation.overlay import TrustOverlayNetwork
from repro.simulation.transaction import FeedbackBatch
from repro.reputation.powertrust import PowerTrust
from tests.conftest import make_feedback


def populate(system_or_store, tid_start: int = 0) -> int:
    """Two honest peers rated well by everyone, one bad peer rated badly."""
    tid = tid_start
    raters = ["a", "b", "c", "d"]
    for _ in range(4):
        for rater in raters:
            for subject, rating in (("good1", 1.0), ("good2", 1.0), ("bad", 0.0)):
                if rater == subject:
                    continue
                tid += 1
                feedback = make_feedback(subject, rating, rater=rater, transaction_id=tid)
                if hasattr(system_or_store, "record_feedback"):
                    system_or_store.record_feedback(feedback)
                else:
                    system_or_store.extend(FeedbackBatch.of([feedback]))
    return tid


class TestOverlay:
    def test_in_degree_centrality_nonempty(self):
        store = FeedbackStore()
        populate(store)
        centrality = TrustOverlayNetwork(store).in_degree_centrality()
        assert centrality["good1"] > 0.0

    def test_empty_store_gives_empty_centrality(self):
        assert TrustOverlayNetwork(FeedbackStore()).in_degree_centrality() == {}

    def test_power_node_selection_prefers_high_scores(self):
        store = FeedbackStore()
        populate(store)
        overlay = TrustOverlayNetwork(store)
        scores = {"good1": 0.9, "good2": 0.8, "bad": 0.1, "a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
        assert overlay.select_power_nodes(scores, 2) == ["good1", "good2"]

    def test_power_node_selection_zero_or_negative(self):
        overlay = TrustOverlayNetwork(FeedbackStore())
        assert overlay.select_power_nodes({"a": 1.0}, 0) == []


class TestPowerTrust:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            PowerTrust(n_power_nodes=0)
        with pytest.raises(ConfigurationError):
            PowerTrust(max_iterations=0)
        with pytest.raises(ConfigurationError):
            PowerTrust(tolerance=-1.0)

    def test_empty_store(self):
        assert PowerTrust().compute_scores() == {}

    def test_good_peers_outrank_bad_peer(self):
        system = PowerTrust(n_power_nodes=2)
        populate(system)
        scores = system.scores()
        assert scores["good1"] > scores["bad"]
        assert scores["good2"] > scores["bad"]

    def test_power_nodes_are_reputable(self):
        system = PowerTrust(n_power_nodes=2)
        populate(system)
        system.refresh()
        assert set(system.power_nodes) <= {"good1", "good2", "a", "b", "c", "d"}
        assert "bad" not in system.power_nodes

    def test_scores_in_unit_interval(self):
        system = PowerTrust()
        populate(system)
        assert all(0.0 <= score <= 1.0 for score in system.scores().values())

    def test_high_information_requirement(self):
        assert PowerTrust.information_requirement > 0.5


class TestCentralityMemo:
    def test_centrality_cached_between_calls(self):
        store = FeedbackStore()
        populate(store)
        overlay = TrustOverlayNetwork(store)
        assert overlay.in_degree_centrality() is overlay.in_degree_centrality()

    def test_new_feedback_invalidates_memo(self):
        store = FeedbackStore()
        populate(store)
        overlay = TrustOverlayNetwork(store)
        before = overlay.in_degree_centrality()
        store.extend(
            FeedbackBatch.of(
                [make_feedback(subject="newcomer", rater="a", rating=1.0, transaction_id=999)]
            )
        )
        after = overlay.in_degree_centrality()
        assert "newcomer" in after and "newcomer" not in before

    def test_memo_does_not_survive_store_clear(self):
        """Regression: a count-keyed memo returned pre-reset centrality
        after clear() once the store grew back to the same size."""
        store = FeedbackStore()
        populate(store)
        overlay = TrustOverlayNetwork(store)
        stale = overlay.in_degree_centrality()
        count_before = len(store)
        store.clear()
        tid = 0
        for _ in range(count_before // 2):
            for subject in ("fresh1", "fresh2"):
                tid += 1
                store.extend(
                    FeedbackBatch.of(
                        [make_feedback(subject=subject, rater="z", rating=1.0, transaction_id=tid)]
                    )
                )
        fresh = overlay.in_degree_centrality()
        assert fresh is not stale
        assert set(fresh) == {"fresh1", "fresh2", "z"}
