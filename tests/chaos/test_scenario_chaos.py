"""Checkpoint/resume byte-identity for scenario runs, per mechanism.

The contract: a run that crashes mid-flight and resumes from its checkpoint
produces an experiment record byte-identical to a run that was never
interrupted — for every reputation mechanism.
"""

import pytest

from repro import faults
from repro.errors import InjectedFault
from repro.faults import FaultPlan, FaultRule
from repro.scenarios.runner import ScenarioRunConfig, resume_scenario, run_scenario
from repro.scenarios.schema.library import scenario_record_json

MECHANISMS = ("none", "average", "beta", "eigentrust", "powertrust")


@pytest.fixture(autouse=True)
def deactivate_plans():
    faults.activate(None)
    yield
    faults.activate(None)


def make_config(mechanism="beta", scenario="traitor-oscillation"):
    return ScenarioRunConfig(
        scenario=scenario,
        mechanism=mechanism,
        n_users=16,
        rounds=10,
        seed=3,
    )


def crash_then_resume(config, tmp_path):
    """Run with checkpointing, die at the final checkpoint save, resume."""
    path = str(tmp_path / f"{config.mechanism}.ckpt")
    crash_at_end = FaultPlan(
        rules=(
            FaultRule(
                site="checkpoint.save",
                action="raise",
                match=(("round_index", config.rounds),),
            ),
        )
    )
    with faults.active(crash_at_end):
        with pytest.raises(InjectedFault):
            run_scenario(config, checkpoint_every=5, checkpoint_path=path)
    # The crash struck while saving the round-10 snapshot: the file still
    # holds the round-5 state, so resume re-executes the back half.
    return resume_scenario(path)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_crash_resume_is_byte_identical(mechanism, tmp_path):
    config = make_config(mechanism=mechanism)
    uninterrupted = scenario_record_json(run_scenario(config))
    resumed = scenario_record_json(crash_then_resume(config, tmp_path))
    assert resumed == uninterrupted


def test_segmented_run_is_byte_identical(tmp_path):
    config = make_config()
    uninterrupted = scenario_record_json(run_scenario(config))
    segmented = scenario_record_json(
        run_scenario(
            config,
            checkpoint_every=2,
            checkpoint_path=str(tmp_path / "segmented.ckpt"),
        )
    )
    assert segmented == uninterrupted


def test_resume_of_completed_checkpoint_collects_without_rerunning(tmp_path):
    config = make_config()
    path = str(tmp_path / "done.ckpt")
    direct = scenario_record_json(
        run_scenario(config, checkpoint_every=5, checkpoint_path=path)
    )
    # The final checkpoint sits at the last round; resuming it has no
    # rounds left to run and must still reproduce the record.
    assert scenario_record_json(resume_scenario(path)) == direct


def test_resume_continues_checkpointing_into_the_source_file(tmp_path):
    config = make_config()
    path = tmp_path / "rolling.ckpt"
    crash_at_end = FaultPlan(
        rules=(
            FaultRule(
                site="checkpoint.save",
                action="raise",
                match=(("round_index", config.rounds),),
            ),
        )
    )
    with faults.active(crash_at_end):
        with pytest.raises(InjectedFault):
            run_scenario(config, checkpoint_every=5, checkpoint_path=str(path))
    before = path.read_bytes()
    resume_scenario(str(path), checkpoint_every=5)
    # The resumed run reached round 10 and rolled the checkpoint forward.
    assert path.read_bytes() != before


def test_collusion_ring_crash_resume(tmp_path):
    """A second scenario family, so the contract is not traitor-specific."""
    config = make_config(scenario="collusion-ring", mechanism="eigentrust")
    uninterrupted = scenario_record_json(run_scenario(config))
    assert scenario_record_json(crash_then_resume(config, tmp_path)) == uninterrupted
