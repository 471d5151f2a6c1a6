"""A scenario checkpoint written while the store kept a Feedback list per subject.

``data/scenario-beta-collusion-ring.ckpt`` holds the round-3 state of
``run_scenario(scenario="collusion-ring", mechanism="beta", n_users=14,
rounds=7, seed=3, checkpoint_every=3)``, written by a build whose
``FeedbackStore`` kept each report as an object in a per-subject list beside
its columns.  Resuming it rebuilds the store's log from those lists and
finishes with the record bytes of a run that was never interrupted.  The
same build held the social graph's ties in a networkx ``Graph``; loading
it moves them into the graph's own adjacency dict, in the same order.
"""

import pickle
from pathlib import Path

from repro.scenarios.runner import resume_scenario, run_scenario
from repro.scenarios.schema.library import scenario_record_json
from repro.simulation.checkpoint import read_checkpoint
from repro.socialnet.generators import SocialNetworkSpec, generate_social_network

CHECKPOINT = Path(__file__).resolve().parent / "data" / "scenario-beta-collusion-ring.ckpt"


def test_list_layout_checkpoint_resumes_to_the_direct_record():
    direct = run_scenario(
        scenario="collusion-ring", mechanism="beta", n_users=14, rounds=7, seed=3
    )
    resumed = resume_scenario(str(CHECKPOINT))
    assert scenario_record_json(resumed) == scenario_record_json(direct)


def test_networkx_graph_layout_loads_into_the_adjacency_dict():
    _, checkpoint = read_checkpoint(str(CHECKPOINT))
    graph = checkpoint.simulator.graph
    # The run's network: the default topology at its size and seed.
    fresh = generate_social_network(SocialNetworkSpec(n_users=14, malicious_fraction=0.25, seed=3))
    assert graph.user_ids() == fresh.user_ids()
    for user_id in fresh.user_ids():
        assert graph.neighbors(user_id) == fresh.neighbors(user_id)
        for neighbor in fresh.neighbors(user_id):
            assert graph.tie_strength(user_id, neighbor) == fresh.tie_strength(user_id, neighbor)
    assert b"networkx" not in pickle.dumps(graph, protocol=4)
