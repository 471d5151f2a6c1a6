"""Unit tests for the churn model."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.simulation.churn import ChurnEvent, ChurnModel
from repro.simulation.peer import Peer, PeerDirectory
from repro.socialnet.user import User


def make_directory(n: int = 10) -> PeerDirectory:
    return PeerDirectory([Peer(user=User(user_id=f"u{i}")) for i in range(n)])


def test_validation():
    with pytest.raises(ConfigurationError):
        ChurnModel(leave_probability=1.5)
    with pytest.raises(ConfigurationError):
        ChurnModel(return_probability=-0.2)


def test_no_churn_by_default():
    directory = make_directory()
    events = ChurnModel().step(directory, random.Random(0))
    assert events == []
    assert all(peer.online for peer in directory.peers())


def test_full_leave_probability_empties_network():
    directory = make_directory()
    events = ChurnModel(leave_probability=1.0).step(directory, random.Random(0))
    assert len(events) == 10
    assert all(event is ChurnEvent.LEFT for _, event in events)
    assert directory.online_peers() == []


def test_offline_peers_return():
    directory = make_directory()
    for peer in directory.peers():
        peer.online = False
    events = ChurnModel(return_probability=1.0).step(directory, random.Random(0))
    assert all(event is ChurnEvent.JOINED for _, event in events)
    assert len(directory.online_peers()) == 10


def test_partial_churn_is_deterministic_per_seed():
    model = ChurnModel(leave_probability=0.5)
    first = make_directory()
    second = make_directory()
    model.step(first, random.Random(3))
    model.step(second, random.Random(3))
    assert [p.online for p in first.peers()] == [p.online for p in second.peers()]


# -- edge cases: mass departure, rejoin ordering, whitewash interplay ----------


def test_engine_survives_every_peer_leaving_in_one_round():
    from repro.simulation.engine import InteractionSimulator, SimulationConfig
    from repro.socialnet.generators import SocialNetworkSpec, generate_social_network

    graph = generate_social_network(SocialNetworkSpec(n_users=12, seed=2))
    config = SimulationConfig(
        rounds=5,
        churn=ChurnModel(leave_probability=1.0, return_probability=0.0),
        seed=2,
    )
    result = InteractionSimulator(graph, config).run()
    # Round 0 empties the network; every round still closes its metrics.
    assert len(result.metrics.rounds) == 5
    assert all(r.online_peers == 0 for r in result.metrics.rounds)
    assert result.transactions == []


def test_rejoin_ordering_is_deterministic_directory_order():
    first = make_directory()
    second = make_directory()
    for directory in (first, second):
        for peer in directory.peers():
            peer.online = False
    model = ChurnModel(return_probability=0.5)
    events_first = model.step(first, random.Random(11))
    events_second = model.step(second, random.Random(11))
    ids_first = [peer.base_id for peer, _ in events_first]
    ids_second = [peer.base_id for peer, _ in events_second]
    assert ids_first == ids_second
    # Events come out in directory (insertion) order, not in draw order.
    insertion = [peer.base_id for peer in first.peers()]
    assert ids_first == [uid for uid in insertion if uid in set(ids_first)]


def test_whitewash_identity_reset_keeps_feedback_history_attributable():
    """A whitewash must reset the reputation link, not the stored evidence."""
    from repro.scenarios.campaign import (
        AttackCampaign,
        CampaignDriver,
        PeerSelector,
        SelectGroup,
        Whitewash,
    )
    from repro.scenarios.runner import reputation_for_graph
    from repro.simulation.engine import InteractionSimulator, SimulationConfig
    from repro.socialnet.generators import SocialNetworkSpec, generate_social_network
    from tests.oracles.reputation import reports_about

    graph = generate_social_network(SocialNetworkSpec(n_users=14, malicious_fraction=0.3, seed=6))
    campaign = AttackCampaign(
        name="wash",
        events=[
            SelectGroup(0, "g", PeerSelector(population="dishonest")),
            Whitewash(4, "g"),
        ],
        window=(4, 8),
    )
    driver = CampaignDriver(campaign)
    reputation = reputation_for_graph(graph, "average")
    simulator = InteractionSimulator(
        graph,
        SimulationConfig(rounds=8, seed=6),
        reputation=reputation,
        hooks=(driver,),
    )
    simulator.run()
    washed = driver.groups["g"]
    assert washed and all(peer.identity_generation >= 1 for peer in washed)
    store = reputation.store
    # At least part of the group accumulated pre-wash evidence to preserve.
    assert any(reports_about(store, peer.base_id) for peer in washed)
    for peer in washed:
        old_id = peer.base_id  # generation-0 identity == the base id
        # Evidence recorded before the wash stays under the old identity...
        old_evidence = reports_about(store, old_id)
        assert all(f.subject == old_id for f in old_evidence)
        # ...and never migrates to the fresh identity.
        for feedback in reports_about(store, peer.peer_id):
            assert feedback.subject == peer.peer_id
        # The directory still resolves both identities to the same peer, so
        # simulator-side attribution survives the reset.
        assert simulator.directory.get(old_id) is peer
        assert simulator.directory.get(peer.peer_id) is peer
        # The reputation system treats the fresh identity as a stranger when
        # it has no post-wash evidence about it.
        if not reports_about(store, peer.peer_id):
            assert reputation.score(peer.peer_id) == reputation.default_score


def test_phased_churn_switches_probabilities_per_round():
    from repro.simulation.churn import ChurnPhase, PhasedChurnModel

    model = PhasedChurnModel(
        leave_probability=0.0,
        return_probability=0.0,
        phases=[ChurnPhase(2, 4, leave_probability=1.0, return_probability=0.0)],
    )
    directory = make_directory(6)
    rng = random.Random(0)
    assert model.step(directory, rng) == []  # round 0: base, no churn
    assert model.step(directory, rng) == []  # round 1
    events = model.step(directory, rng)  # round 2: phase active
    assert len(events) == 6
    assert all(event is ChurnEvent.LEFT for _, event in events)
    assert model.current_round == 3


def test_phased_churn_overlap_resolves_to_latest_phase():
    from repro.simulation.churn import ChurnPhase, PhasedChurnModel

    model = PhasedChurnModel(
        phases=[
            ChurnPhase(0, 10, leave_probability=0.0, return_probability=0.0),
            ChurnPhase(3, 5, leave_probability=1.0, return_probability=0.0),
        ]
    )
    for _ in range(3):
        model.step(make_directory(), random.Random(0))
    directory = make_directory()
    events = model.step(directory, random.Random(0))  # round 3: spike wins
    assert len(events) == 10


def test_phase_validation():
    from repro.simulation.churn import ChurnPhase

    with pytest.raises(ConfigurationError):
        ChurnPhase(5, 5)
    with pytest.raises(ConfigurationError):
        ChurnPhase(-1, 3)
    with pytest.raises(ConfigurationError):
        ChurnPhase(0, 3, leave_probability=1.5)


def test_phased_churn_model_is_reusable_across_simulators():
    """A campaign-carried churn model must rewind per run (engine resets it)."""
    from repro.simulation.churn import ChurnPhase, PhasedChurnModel
    from repro.simulation.engine import InteractionSimulator, SimulationConfig
    from repro.socialnet.generators import SocialNetworkSpec, generate_social_network

    churn = PhasedChurnModel(
        phases=[ChurnPhase(1, 3, leave_probability=1.0, return_probability=0.0)]
    )

    def run_once():
        graph = generate_social_network(SocialNetworkSpec(n_users=10, seed=4))
        config = SimulationConfig(rounds=5, churn=churn, seed=4)
        return InteractionSimulator(graph, config).run()

    first = run_once()
    second = run_once()
    assert [r.online_peers for r in first.metrics.rounds] == [
        r.online_peers for r in second.metrics.rounds
    ]
    # The spike really fired on the second run too: everyone left by round 2.
    assert second.metrics.rounds[2].online_peers == 0
