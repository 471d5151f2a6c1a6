"""Tests for the scenario catalog and the end-to-end scenario runner."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.campaign import SetOnline, SwitchBehavior, Whitewash
from repro.scenarios.catalog import (
    SYBIL_PREFIX,
    attack_window,
    get_scenario,
    inject_sybils,
    scenario_names,
)
from repro.scenarios.runner import ScenarioRunConfig, run_scenario
from repro.simulation.churn import PhasedChurnModel
from repro.socialnet.generators import SocialNetworkSpec, generate_social_network


class TestAttackWindow:
    def test_leaves_lead_and_tail(self):
        start, end = attack_window(20)
        assert 0 < start < end <= 20

    def test_tiny_round_budgets_still_valid(self):
        for rounds in (1, 2, 3):
            start, end = attack_window(rounds)
            assert 0 < start <= end <= rounds

    def test_zero_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            attack_window(0)


class TestCatalog:
    def test_names_are_stable(self):
        assert scenario_names() == [
            "baseline",
            "collusion-ring",
            "whitewash-wave",
            "traitor-oscillation",
            "slander",
            "sybil-burst",
            "collusion-under-churn",
            "marketplace",
            "flash-crowd",
            "regional-partition",
            "long-horizon-drift",
        ]

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("teleport-attack")

    def test_unknown_knob_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("collusion-ring").campaign(rounds=12, warp_factor=9)

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("rounds", (4, 12, 30))
    def test_every_entry_builds_within_budget(self, name, rounds):
        campaign = get_scenario(name).campaign(rounds=rounds)
        start, end = campaign.window
        assert 0 <= start <= end <= rounds
        for event in campaign.events:
            assert 0 <= event.round_index <= rounds

    def test_knob_overrides_reach_the_campaign(self):
        short = get_scenario("whitewash-wave").campaign(rounds=20, wave_period=1)
        long = get_scenario("whitewash-wave").campaign(rounds=20, wave_period=10)
        short_waves = [e for e in short.events if isinstance(e, Whitewash)]
        long_waves = [e for e in long.events if isinstance(e, Whitewash)]
        assert len(short_waves) > len(long_waves) >= 1

    def test_traitor_oscillation_alternates(self):
        campaign = get_scenario("traitor-oscillation").campaign(
            rounds=20, build_rounds=2, betray_rounds=2
        )
        switches = [e for e in campaign.events if isinstance(e, SwitchBehavior)]
        assert len(switches) >= 4  # initial grooming + several phase flips

    def test_collusion_under_churn_carries_phased_churn(self):
        campaign = get_scenario("collusion-under-churn").campaign(rounds=20)
        assert isinstance(campaign.churn, PhasedChurnModel)
        assert campaign.churn.phases
        start, end = campaign.window
        assert campaign.churn.phases[0].start == start
        assert campaign.churn.phases[0].end == end

    def test_sybil_burst_keeps_cohort_dormant_then_bursts(self):
        campaign = get_scenario("sybil-burst").campaign(rounds=20)
        online_events = [e for e in campaign.events if isinstance(e, SetOnline)]
        assert online_events[0].round_index == 0 and not online_events[0].online
        assert any(e.online for e in online_events)


class TestSybilInjection:
    def test_inject_sybils_wires_clique_and_victims(self):
        graph = generate_social_network(SocialNetworkSpec(n_users=20, seed=1))
        sybils = inject_sybils(graph, random.Random(0), n_sybils=4, attach_degree=2)
        assert len(sybils) == 4
        assert len(graph) == 24
        for user in sybils:
            assert not user.is_honest
            neighbors = graph.neighbors(user.user_id)
            fellow = [n for n in neighbors if n.startswith(SYBIL_PREFIX)]
            victims = [n for n in neighbors if not n.startswith(SYBIL_PREFIX)]
            assert len(fellow) == 3  # clique
            assert len(victims) >= 2

    def test_setup_scenario_graph_noop_for_plain_scenarios(self):
        graph = generate_social_network(SocialNetworkSpec(n_users=10, seed=1))
        get_scenario("collusion-ring").prepare_graph(graph, random.Random(0))
        assert len(graph) == 10

    def test_invalid_counts_rejected(self):
        graph = generate_social_network(SocialNetworkSpec(n_users=10, seed=1))
        with pytest.raises(ConfigurationError):
            inject_sybils(graph, random.Random(0), n_sybils=0, attach_degree=2)
        with pytest.raises(ConfigurationError):
            inject_sybils(graph, random.Random(0), n_sybils=2, attach_degree=0)


class TestRunScenario:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_runs_and_measures(self, name):
        result = run_scenario(scenario=name, mechanism="average", n_users=18, rounds=8, seed=5)
        metrics = result.robustness
        assert len(result.trace.observations) == 8
        for value in (
            metrics.baseline_separation,
            metrics.attack_separation,
            metrics.post_separation,
            metrics.final_rank_correlation,
        ):
            assert -1.0 <= value <= 1.0
        assert metrics.time_to_detect >= -1
        assert metrics.time_to_recover >= -1

    def test_same_seed_same_metrics(self):
        first = run_scenario(
            scenario="collusion-ring", mechanism="eigentrust", n_users=18, rounds=8, seed=5
        )
        second = run_scenario(
            scenario="collusion-ring", mechanism="eigentrust", n_users=18, rounds=8, seed=5
        )
        assert first.robustness == second.robustness
        assert first.final_scores == second.final_scores

    def test_whitewash_wave_actually_resets_identities(self):
        result = run_scenario(
            scenario="whitewash-wave", mechanism="average", n_users=18, rounds=10, seed=5
        )
        generations = [
            peer.identity_generation
            for peer in result.simulation.directory.peers()
            if not peer.user.is_honest
        ]
        assert max(generations) >= 1

    def test_sybils_only_transact_during_the_window(self):
        result = run_scenario(
            scenario="sybil-burst", mechanism="average", n_users=18, rounds=12, seed=5
        )
        start, end = result.campaign.window
        directory = result.simulation.directory
        sybil_rounds = {
            t.time
            for t in result.simulation.transactions
            if directory.get(t.provider).base_id.startswith(SYBIL_PREFIX)
            or directory.get(t.consumer).base_id.startswith(SYBIL_PREFIX)
        }
        assert sybil_rounds  # the burst did happen
        assert all(start <= r < end for r in sybil_rounds)

    def test_run_knobs_reach_the_graph_setup_and_the_campaign(self):
        # n_sybils is inject_sybils' knob, lead_fraction sybil_burst's.
        rounds = 12
        result = run_scenario(
            scenario="sybil-burst",
            mechanism="average",
            n_users=18,
            rounds=rounds,
            seed=5,
            knobs={"n_sybils": 4, "lead_fraction": 0.2},
        )
        sybils = [uid for uid in result.graph.user_ids() if uid.startswith(SYBIL_PREFIX)]
        assert len(sybils) == 4
        assert result.campaign.window == attack_window(rounds, 0.2, 0.45)
        with pytest.raises(ConfigurationError) as excinfo:
            run_scenario(
                scenario="sybil-burst",
                mechanism="average",
                n_users=18,
                rounds=rounds,
                seed=5,
                knobs={"n_sybils": 4, "warp_factor": 9},
            )
        assert str(excinfo.value) == (
            "scenario 'sybil-burst' has no knobs ['warp_factor']; available: "
            "['attach_degree', 'attack_fraction', 'lead_fraction', 'n_sybils']"
        )

    def test_preset_overrides_population(self):
        result = run_scenario(
            ScenarioRunConfig(
                scenario="baseline",
                mechanism="none",
                preset="village",
                rounds=4,
                seed=2,
            )
        )
        assert len(result.graph) == 25  # the village preset size, not n_users

    def test_adversarial_lab_preset_exists(self):
        from repro.socialnet.presets import NETWORK_PRESETS

        spec = NETWORK_PRESETS["adversarial-lab"]
        assert spec.malicious_fraction >= 0.3

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            run_scenario(ScenarioRunConfig(), scenario="slander")

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(ConfigurationError):
            ScenarioRunConfig(scenario="nope")
