"""A scenario checkpoint written while the store kept a Feedback list per subject.

``data/scenario-beta-collusion-ring.ckpt`` holds the round-3 state of
``run_scenario(scenario="collusion-ring", mechanism="beta", n_users=14,
rounds=7, seed=3, checkpoint_every=3)``, written by a build whose
``FeedbackStore`` kept each report as an object in a per-subject list beside
its columns.  Resuming it rebuilds the store's log from those lists and
finishes with the record bytes of a run that was never interrupted.
"""

from pathlib import Path

from repro.scenarios.runner import resume_scenario, run_scenario
from repro.scenarios.schema.library import scenario_record_json

CHECKPOINT = Path(__file__).resolve().parent / "data" / "scenario-beta-collusion-ring.ckpt"


def test_list_layout_checkpoint_resumes_to_the_direct_record():
    direct = run_scenario(
        scenario="collusion-ring", mechanism="beta", n_users=14, rounds=7, seed=3
    )
    resumed = resume_scenario(str(CHECKPOINT))
    assert scenario_record_json(resumed) == scenario_record_json(direct)
