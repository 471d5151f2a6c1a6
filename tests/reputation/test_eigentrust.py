"""Unit tests for EigenTrust."""

import pytest

from repro.errors import ConfigurationError
from repro.reputation.eigentrust import EigenTrust
from tests.conftest import make_feedback


def feed_community(system, *, rounds: int = 5) -> None:
    """Three honest peers rate each other well and the freeloader badly;
    the freeloader badmouths everyone."""
    honest = ["a", "b", "c"]
    tid = 0
    for _ in range(rounds):
        for rater in honest:
            for subject in honest:
                if rater == subject:
                    continue
                tid += 1
                system.record_feedback(make_feedback(subject, 1.0, rater=rater, transaction_id=tid))
            tid += 1
            system.record_feedback(make_feedback("mallory", 0.0, rater=rater, transaction_id=tid))
        for subject in honest:
            tid += 1
            system.record_feedback(make_feedback(subject, 0.0, rater="mallory", transaction_id=tid))


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            EigenTrust(restart_weight=1.5)
        with pytest.raises(ConfigurationError):
            EigenTrust(max_iterations=0)
        with pytest.raises(ConfigurationError):
            EigenTrust(tolerance=0.0)


class TestScoring:
    def test_empty_store_gives_no_scores(self):
        assert EigenTrust().compute_scores() == {}

    def test_honest_peers_outrank_the_badmouthing_freeloader(self):
        system = EigenTrust()
        feed_community(system)
        scores = system.scores()
        for peer in ("a", "b", "c"):
            assert scores[peer] > scores["mallory"]

    def test_scores_are_in_unit_interval(self):
        system = EigenTrust()
        feed_community(system)
        assert all(0.0 <= score <= 1.0 for score in system.scores().values())

    def test_converges_within_budget(self):
        system = EigenTrust(max_iterations=200, tolerance=1e-10)
        feed_community(system)
        system.refresh()
        assert system.iterations_used < 200

    def test_single_report_degenerate_case(self):
        system = EigenTrust()
        system.record_feedback(make_feedback("bob", 1.0, rater="alice"))
        scores = system.scores()
        assert set(scores) == {"alice", "bob"}
        assert all(0.0 <= value <= 1.0 for value in scores.values())


class TestPretrustedPeers:
    def test_pretrusted_peers_resist_collusion(self):
        """A colluding clique inflating itself is damped by pre-trusted peers."""

        def build(pretrusted):
            system = EigenTrust(pretrusted=pretrusted, restart_weight=0.3)
            tid = 0
            colluders = ["x", "y", "z"]
            honest = ["a", "b"]
            # The collusion ring rates itself highly, many times.
            for _ in range(10):
                for rater in colluders:
                    for subject in colluders:
                        if rater == subject:
                            continue
                        tid += 1
                        system.record_feedback(
                            make_feedback(subject, 1.0, rater=rater, transaction_id=tid)
                        )
            # Honest peers rate each other positively a few times and the
            # colluders negatively.
            for _ in range(3):
                for rater in honest:
                    for subject in honest:
                        if rater == subject:
                            continue
                        tid += 1
                        system.record_feedback(
                            make_feedback(subject, 1.0, rater=rater, transaction_id=tid)
                        )
                    for subject in colluders:
                        tid += 1
                        system.record_feedback(
                            make_feedback(subject, 0.0, rater=rater, transaction_id=tid)
                        )
            return system.scores()

        unprotected = build(pretrusted=[])
        protected = build(pretrusted=["a", "b"])
        honest_margin_unprotected = min(unprotected[p] for p in ("a", "b")) - max(
            unprotected[p] for p in ("x", "y", "z")
        )
        honest_margin_protected = min(protected[p] for p in ("a", "b")) - max(
            protected[p] for p in ("x", "y", "z")
        )
        assert honest_margin_protected > honest_margin_unprotected

    def test_set_pretrusted_invalidates_cache(self):
        system = EigenTrust()
        feed_community(system)
        before = system.scores()
        system.set_pretrusted(["a"])
        after = system.scores()
        assert before != after


class TestRescaling:
    def test_identical_mass_rescales_to_half(self):
        system = EigenTrust()
        system.record_feedback(make_feedback("b", 1.0, rater="a", transaction_id=1))
        system.record_feedback(make_feedback("a", 1.0, rater="b", transaction_id=2))
        assert system.refresh() == {"a": 0.5, "b": 0.5}

    def test_rescale_spans_unit_interval(self):
        system = EigenTrust(pretrusted=["a"])
        feed_community(system)
        scores = system.refresh()
        assert scores["a"] == 1.0
        assert scores["mallory"] == 0.0
        assert 0.0 < scores["b"] < 1.0
