"""Integration tests for the figure and claim experiments (quick settings).

These are the reproduction's acceptance tests: they assert the *shapes* the
paper claims, on small-but-real runs of the experiment drivers.
"""

import pytest

from repro.experiments import ablations, claims, figure1, figure2_left, figure2_right


@pytest.fixture(scope="module")
def figure1_result():
    return figure1.run(n_users=25, rounds=10, seed=1)


@pytest.fixture(scope="module")
def figure2_right_result():
    return figure2_right.run(
        levels=(0.0, 0.3, 0.6, 1.0), simulate=True, n_users=25, rounds=10, seed=1
    )


@pytest.fixture(scope="module")
def claims_result():
    return claims.run(n_users=25, rounds=10, seed=1)


@pytest.fixture(scope="module")
def ablation_result():
    return ablations.run(n_users=25, rounds=10, seed=1)


class TestFigure1:
    def test_every_paper_arrow_sign_is_reproduced(self, figure1_result):
        assert figure1_result.all_signs_match
        assert set(figure1_result.sign_matches) == set(figure1.EXPECTED_SIGNS)

    def test_empirical_contrasts_hold(self, figure1_result):
        assert figure1_result.all_contrasts_hold

    def test_report_renders(self, figure1_result):
        text = figure1.report(figure1_result)
        assert "E-F1" in text
        assert "satisfaction -> trust" in text


class TestFigure2Left:
    def test_area_a_exists_and_contains_the_optimum(self):
        result = figure2_left.run(threshold=0.5)
        assert result.area_a_points
        assert 0.0 < result.area_a_fraction < 1.0
        assert result.best_in_area_a

    def test_area_a_shrinks_with_a_stricter_threshold(self):
        loose = figure2_left.run(threshold=0.4)
        strict = figure2_left.run(threshold=0.65)
        assert len(strict.area_a_points) < len(loose.area_a_points)
        sizes = [
            len(figure2_left.run(threshold=threshold).area_a_points)
            for threshold in (0.4, 0.5, 0.6, 0.7)
        ]
        assert all(a >= b for a, b in zip(sizes, sizes[1:], strict=False))

    def test_extreme_sharing_levels_are_outside_area_a(self):
        result = figure2_left.run(threshold=0.5)
        for point in result.area_a_points:
            assert point.settings.sharing_level not in (0.0,)

    def test_report_renders(self):
        assert "Area A" in figure2_left.report(figure2_left.run())


class TestFigure2Right:
    def test_analytic_shapes(self, figure2_right_result):
        points = figure2_right_result.analytic_points
        privacy = [p.facets.privacy for p in points]
        reputation = [p.facets.reputation for p in points]
        assert all(a >= b for a, b in zip(privacy, privacy[1:], strict=False))
        assert all(a <= b for a, b in zip(reputation, reputation[1:], strict=False))

    def test_simulated_shapes_match_the_paper(self, figure2_right_result):
        points = figure2_right_result.simulated_points
        assert len(points) == 4
        # Privacy at the lowest sharing level beats privacy at the highest.
        assert points[0].facets.privacy > points[-1].facets.privacy
        # Reputation power at the highest sharing level beats the lowest.
        assert points[-1].facets.reputation >= points[0].facets.reputation

    def test_interior_optimum_and_iso_satisfaction_pairs(self, figure2_right_result):
        assert 0.0 < figure2_right_result.best_analytic.sharing_level < 1.0
        assert figure2_right_result.iso_satisfaction_pairs

    def test_report_renders_both_tables(self, figure2_right_result):
        text = figure2_right.report(figure2_right_result)
        assert "analytic model" in text
        assert "full simulation" in text


class TestClaims:
    def test_all_five_claims_hold(self, claims_result):
        outcomes = claims_result.by_id()
        assert set(outcomes) == {"E-C1", "E-C2", "E-C3", "E-C4", "E-C5"}
        assert claims_result.all_hold

    def test_report_renders(self, claims_result):
        text = claims.report(claims_result)
        assert "E-C1" in text and "E-C5" in text


class TestAblations:
    def test_aggregator_ablation_covers_all_aggregators(self, ablation_result):
        names = {outcome.aggregator for outcome in ablation_result.aggregators}
        assert names == {"weighted", "geometric", "minimum", "owa"}

    def test_minimum_aggregator_penalizes_unbalanced_profiles_most(self, ablation_result):
        by_name = ablation_result.aggregator_by_name()
        assert by_name["minimum"].unbalanced_penalty >= by_name["weighted"].unbalanced_penalty
        assert by_name["minimum"].unbalanced_penalty >= by_name["geometric"].unbalanced_penalty
        assert by_name["geometric"].unbalanced_penalty > by_name["weighted"].unbalanced_penalty

    def test_every_aggregator_finds_an_interior_optimum_in_area_a(self, ablation_result):
        for outcome in ablation_result.aggregators:
            assert 0.0 < outcome.best_sharing_level < 1.0
            assert outcome.best_in_area_a

    def test_anonymity_trades_reputation_for_privacy(self, ablation_result):
        modes = ablation_result.anonymity_by_mode()
        identified = modes["identified-eigentrust"]
        anonymous = modes["anonymous-eigentrust"]
        assert anonymous.privacy_facet > identified.privacy_facet
        assert anonymous.reputation_facet <= identified.reputation_facet
        assert modes["anonymous-beta"].privacy_facet > modes["identified-beta"].privacy_facet

    def test_beta_survives_anonymity_better_than_eigentrust(self, ablation_result):
        modes = ablation_result.anonymity_by_mode()
        # The count-based Beta mechanism does not use rater identities, so
        # stripping them barely moves its accuracy; EigenTrust's rater-
        # weighted aggregation loses its local-trust signal entirely (its
        # scores degenerate to the pre-trusted restart distribution).
        beta_shift = abs(
            modes["identified-beta"].reputation_accuracy
            - modes["anonymous-beta"].reputation_accuracy
        )
        assert beta_shift < 0.15
        assert (
            modes["anonymous-beta"].reputation_accuracy > 0.5
        ), "Beta should still separate good from bad peers under anonymity"

    def test_report_renders(self, ablation_result):
        text = ablations.report(ablation_result)
        assert "E-A1" in text and "E-A2" in text
