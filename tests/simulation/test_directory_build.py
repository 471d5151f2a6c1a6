"""The simulator's directory build under a mixed adversary population.

The scenario catalog's presets run with the default (all-zero) adversary
mix, so these digests are what pins the ``"behavior"`` stream draws for
traitors, selfish peers and a collusion ring: one
``behavior_for_user`` draw per user in graph order, then one ``sample``
over the dishonest peers for the ring.
"""

import hashlib
import json

from repro.reputation.beta import BetaReputation
from repro.simulation.adversary import CollusiveBehavior
from repro.simulation.engine import InteractionSimulator, SimulationConfig
from repro.socialnet.generators import SocialNetworkSpec, generate_social_network

SPEC = SocialNetworkSpec(n_users=18, malicious_fraction=0.3, seed=9)

DIRECTORY_SHA256 = "4c1e5f0f9a8172982c239145a78b3503873faf110b1a59feee4d709b24a76858"
RUN_SHA256 = "f95dfa3870ad4d562e791c2a23ef06662d0483fc2b596d4495a953ccdb14cf9b"


def _config() -> SimulationConfig:
    return SimulationConfig(
        rounds=6,
        seed=9,
        traitor_fraction=0.3,
        whitewasher_fraction=0.3,
        selfish_fraction=0.2,
        collusion_fraction=0.6,
    )


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _directory_rows(simulator: InteractionSimulator) -> list[list[object]]:
    rows: list[list[object]] = []
    for peer in simulator.directory.peers():
        behavior = peer.behavior
        ring = sorted(behavior.ring) if isinstance(behavior, CollusiveBehavior) else None
        rows.append([peer.base_id, type(behavior).__name__, ring])
    return rows


def _simulator() -> InteractionSimulator:
    graph = generate_social_network(SPEC)
    return InteractionSimulator(graph, _config(), reputation=BetaReputation())


class TestMixedAdversaryDirectory:
    def test_directory_matches_the_pinned_draws(self):
        rows = _directory_rows(_simulator())
        # Five behaviour classes and a three-peer ring.
        assert {row[1] for row in rows} == {
            "HonestBehavior",
            "SelfishBehavior",
            "MaliciousBehavior",
            "TraitorBehavior",
            "CollusiveBehavior",
        }
        assert sum(row[1] == "CollusiveBehavior" for row in rows) == 3
        assert _digest(rows) == DIRECTORY_SHA256

    def test_run_matches_the_pinned_trajectory(self):
        result = _simulator().run()
        payload = {
            "transactions": [
                [t.transaction_id, t.time, t.consumer, t.provider, t.outcome.name, t.quality]
                for t in result.transactions
            ],
            "disclosed": [
                [f.transaction_id, f.time, f.subject, f.rating, f.rater, f.truthful]
                for f in result.disclosed_feedbacks
            ],
        }
        assert _digest(payload) == RUN_SHA256
