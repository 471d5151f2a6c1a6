"""Shared networks: cache reuse and mutation guards; per-run scenario setup."""

import pytest

from repro import _profiling
from repro.scenarios import runner
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import ScenarioRunConfig, run_scenario
from repro.socialnet.generators import (
    SocialNetworkSpec,
    cached_social_network,
    clear_network_cache,
    generate_social_network,
)
from repro.socialnet.user import User, standard_profile


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_network_cache()
    yield
    clear_network_cache()


SPEC = SocialNetworkSpec(n_users=16, seed=3)


class TestNetworkCache:
    def test_same_spec_shares_one_instance(self):
        assert cached_social_network(SPEC) is cached_social_network(
            SocialNetworkSpec(n_users=16, seed=3)
        )

    def test_different_seed_is_a_different_network(self):
        assert cached_social_network(SPEC) is not cached_social_network(
            SocialNetworkSpec(n_users=16, seed=4)
        )

    def test_cached_equals_fresh_generation(self):
        shared = cached_social_network(SPEC)
        fresh = generate_social_network(SPEC)
        assert shared.user_ids() == fresh.user_ids()
        assert {
            uid: shared.neighbors(uid) for uid in shared.user_ids()
        } == {uid: fresh.neighbors(uid) for uid in fresh.user_ids()}

    def test_mutated_entry_is_regenerated_not_reused(self):
        shared = cached_social_network(SPEC)
        user = User(user_id="intruder", profile=standard_profile("intruder"))
        shared.add_user(user)
        regenerated = cached_social_network(SPEC)
        assert regenerated is not shared
        assert "intruder" not in regenerated

    def test_unhashable_extra_generates_fresh(self):
        spec = SocialNetworkSpec(n_users=10, seed=1, extra={"tags": ["a", "b"]})
        first = cached_social_network(spec)
        fresh = generate_social_network(spec)
        assert first.user_ids() == fresh.user_ids()
        assert {uid: first.neighbors(uid) for uid in first.user_ids()} == {
            uid: fresh.neighbors(uid) for uid in fresh.user_ids()
        }
        assert cached_social_network(spec) is not first


class TestScenarioSetupCache:
    def test_sybil_scenario_does_not_pollute_the_base_network(self):
        config = ScenarioRunConfig(
            scenario="sybil-burst", mechanism="average", n_users=14, rounds=10, seed=2
        )
        graph = run_scenario(config).graph
        assert any(uid.startswith("sybil-") for uid in graph.user_ids())
        base = cached_social_network(
            SocialNetworkSpec(
                n_users=config.n_users,
                topology=config.topology,
                malicious_fraction=config.malicious_fraction,
                seed=config.seed,
            )
        )
        assert not any(uid.startswith("sybil-") for uid in base.user_ids())

    def test_run_scenario_results_identical_with_and_without_setup_cache(self, monkeypatch):
        kwargs = dict(
            scenario="whitewash-wave", mechanism="eigentrust", n_users=14, rounds=8, seed=4
        )
        with _profiling.profiled() as timer:
            shared = run_scenario(**kwargs)
            again = run_scenario(**kwargs)
        assert again.graph is shared.graph
        assert timer.work["networks_generated"] == 1
        clear_network_cache()
        monkeypatch.setattr(runner, "cached_social_network", generate_social_network)
        with _profiling.profiled() as timer:
            fresh = run_scenario(**kwargs)
            fresh_again = run_scenario(**kwargs)
        assert fresh_again.graph is not fresh.graph
        assert timer.work["networks_generated"] == 2
        assert shared.robustness == fresh.robustness
        assert shared.final_scores == fresh.final_scores


class TestCampaignMemo:
    def test_different_knobs_build_different_campaigns(self):
        base = get_scenario("collusion-ring").campaign(rounds=12)
        dense = get_scenario("collusion-ring").campaign(rounds=12, density=0.5)
        assert base is not dense

    def test_churn_carrying_campaigns_are_never_shared(self):
        # A PhasedChurnModel counts rounds; two simulators constructed
        # before either runs would corrupt a shared counter, so campaigns
        # with a churn override must be fresh per build.
        first = get_scenario("collusion-under-churn").campaign(rounds=12)
        second = get_scenario("collusion-under-churn").campaign(rounds=12)
        assert first is not second
        assert first.churn is not second.churn

    def test_interleaved_construction_keeps_churn_phases_correct(self):
        # Regression: construct A, construct B, run A, run B — B must see
        # the churn spike at its scheduled rounds, not a drained counter.
        kwargs = dict(
            scenario="collusion-under-churn", mechanism="none", n_users=14, rounds=10, seed=6
        )
        reference = run_scenario(**kwargs)
        config_a = ScenarioRunConfig(**kwargs)
        config_b = ScenarioRunConfig(**kwargs)
        # run_scenario builds simulators internally; emulate interleaving by
        # building both campaigns first, then running both configs.
        get_scenario("collusion-under-churn").campaign(rounds=10)
        first = run_scenario(config_a)
        second = run_scenario(config_b)
        online_series = [
            [observation.online_peers for observation in result.trace.observations]
            for result in (reference, first, second)
        ]
        assert online_series[0] == online_series[1] == online_series[2]

    def test_memoized_campaign_backs_repeated_runs(self):
        kwargs = dict(
            scenario="collusion-under-churn", mechanism="average", n_users=14, rounds=8, seed=1
        )
        first = run_scenario(**kwargs)
        second = run_scenario(**kwargs)
        # The stateful phased churn model starts at round 0 in every run,
        # so repeated runs yield identical trajectories.
        assert first.robustness == second.robustness
