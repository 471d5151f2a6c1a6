"""The sweep schedule: tasks that share a simulation run back to back.

A detection threshold only changes the metric layer, so a threshold grid
over the robustness matrix holds one simulation per (scenario, mechanism)
cell however many thresholds it lists.  These tests pin that a sweep
simulates each cell once, that the records and their streaming order do
not show the schedule, and that the journal keeps every completed task.
"""

import dataclasses
import json

import pytest

from repro import _profiling
from repro.experiments.journal import verify_journal
from repro.experiments.results import records_to_json
from repro.experiments.runner import EXPERIMENTS
from repro.experiments.sweep import (
    SweepExecutor,
    SweepSpec,
    expand_tasks,
    run_sweep,
    schedule,
    simulation_identity,
)
from repro.scenarios.runner import EVALUATION_FIELDS, ScenarioRunConfig
from repro.scenarios.schema.model import CampaignSection

#: The 11 catalog scenarios, pinned so catalog growth cannot resize the grid.
SCENARIOS = [
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
THRESHOLDS = [0.05, 0.1, 0.2]
#: ``robustness.run``'s default mechanism columns: five per task.
N_MECHANISMS = 5


def threshold_grid(scenarios, *, n_users=16, rounds=8, seed=0):
    """A threshold-major robustness grid, declared as the repo benchmark
    declares it: each threshold pass re-visits every cell.  ``seed=None``
    leaves the seed to per-task derivation."""
    grids = {"detect_threshold": THRESHOLDS, "scenario": scenarios}
    grids.update(n_users=[n_users], rounds=[rounds])
    if seed is not None:
        grids["seed"] = [seed]
    return SweepSpec(experiment="robustness", grids=grids, quick_base=False, seed=5)


def _json(result):
    return records_to_json(result.records, campaign=result.spec.campaign_metadata())


class TestSchedule:
    def test_tasks_sharing_a_simulation_run_back_to_back(self):
        tasks = expand_tasks(threshold_grid(["collusion-ring", "sybil-burst"]))
        assert [task.index for task in schedule(tasks)] == [0, 2, 4, 1, 3, 5]

    def test_derived_seeds_share_nothing(self):
        # Without a swept seed every task derives its own seed from its
        # params, thresholds included: no two tasks simulate the same run.
        tasks = expand_tasks(threshold_grid(["collusion-ring", "sybil-burst"], seed=None))
        assert len({simulation_identity(task) for task in tasks}) == len(tasks)
        assert schedule(tasks) == tasks

    def test_experiment_without_evaluation_only_params_keeps_its_order(self):
        # Tasks 0 and 2 would simulate the same figure1 run, but figure1
        # declares no evaluation-only parameter, so nothing is regrouped.
        spec = SweepSpec(experiment="figure1", grids={"seed": [1, 2, 1]})
        tasks = expand_tasks(spec)
        assert EXPERIMENTS["figure1"].evaluation_only == ()
        assert schedule(tasks) == tasks

    def test_pool_chunks_hold_whole_groups(self):
        # The repo benchmark's campaign: 33 threshold-major tasks, 11 groups
        # of 3, packed into chunks of at most 17 for two workers.  A cut
        # every 17 tasks (17 + 16) would split a group and simulate it in
        # both workers.
        tasks = expand_tasks(threshold_grid(SCENARIOS, n_users=40, rounds=120))
        chunks = SweepExecutor(2, chunksize=17)._chunks(tasks)
        groups = [len({simulation_identity(task) for task in chunk}) for chunk in chunks]
        assert [len(chunk) for chunk in chunks] == [15, 15, 3]
        assert groups == [5, 5, 1]
        # Cut in declaration order, each chunk would hold all 11 groups.
        assert len({simulation_identity(task) for task in tasks[:17]}) == 11
        assert len({simulation_identity(task) for task in tasks[17:]}) == 11

    @pytest.mark.parametrize("chunksize", [1, 2, 3, 5, 17, 33])
    def test_each_group_lands_in_one_chunk_in_schedule_order(self, chunksize):
        tasks = expand_tasks(threshold_grid(SCENARIOS, n_users=40, rounds=120))
        chunks = SweepExecutor(2, chunksize=chunksize)._chunks(tasks)
        assert [task for chunk in chunks for task in chunk] == schedule(tasks)
        homes: dict[str | int, set[int]] = {}
        for number, chunk in enumerate(chunks):
            identities = {simulation_identity(task) for task in chunk}
            for identity in identities:
                homes.setdefault(identity, set()).add(number)
            # Over the target only when one group alone is larger.
            assert len(chunk) <= chunksize or len(identities) == 1
        assert len(homes) == len(SCENARIOS)
        assert all(len(numbers) == 1 for numbers in homes.values())


class TestSimulationIdentity:
    def test_evaluation_fields_are_declared_by_the_robustness_entry(self):
        entry = EXPERIMENTS["robustness"]
        assert entry.evaluation_only == EVALUATION_FIELDS
        assert all(entry.accepts(name) for name in EVALUATION_FIELDS)

    def test_simulation_key_covers_every_other_field(self):
        # One changed value per field.  A new ScenarioRunConfig field fails
        # the first assertion until it is listed here, so the key cannot
        # silently miss a field that shapes the simulation.
        changed = {
            "scenario": "sybil-burst",
            "mechanism": "beta",
            "n_users": 41,
            "rounds": 31,
            "seed": 1,
            "topology": "erdos_renyi",
            "malicious_fraction": 0.3,
            "interactions_per_peer": 2.0,
            "sharing_level": 0.5,
            "preset": "friendship",
            "knobs": {"density": 0.5},
            "detect_threshold": 0.2,
            "recovery_fraction": 0.5,
            "campaign": CampaignSection(window=(0.25, 0.75)),
        }
        base = ScenarioRunConfig()
        assert set(changed) == {item.name for item in dataclasses.fields(base)}
        for name, value in changed.items():
            key = dataclasses.replace(base, **{name: value}).simulation_key()
            assert key is not None
            assert (key == base.simulation_key()) == (name in EVALUATION_FIELDS), name

    def test_unhashable_knobs_have_no_key(self):
        assert ScenarioRunConfig(knobs={"density": [0.5]}).simulation_key() is None


class TestScheduledSweeps:
    def test_inline_threshold_grid_simulates_each_cell_once(self):
        spec = threshold_grid(SCENARIOS)
        with _profiling.profiled() as timer:
            result = run_sweep(spec, jobs=1)
        assert result.n_ok == len(THRESHOLDS) * len(SCENARIOS)
        # 11 scenarios x 5 mechanisms, not once more per threshold.
        assert timer.counts["simulate"] == len(SCENARIOS) * N_MECHANISMS
        assert timer.counts["metrics"] == len(THRESHOLDS) * len(SCENARIOS) * N_MECHANISMS

    def test_records_identical_across_jobs_chunking_and_accel(self):
        # Runs outside any shared_simulations() block are compared with
        # shared ones in tests/properties/test_property_incremental.py.
        spec = threshold_grid(["collusion-ring", "sybil-burst"])
        serial = _json(run_sweep(spec, jobs=1))
        assert _json(run_sweep(spec, jobs=2, chunksize=1)) == serial
        assert _json(run_sweep(spec, jobs=2, chunksize=2)) == serial
        assert _json(run_sweep(spec, jobs=2, chunksize=17)) == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_record_fires_in_task_index_order(self, jobs):
        spec = threshold_grid(["collusion-ring", "sybil-burst"])
        streamed = []
        result = run_sweep(spec, jobs=jobs, chunksize=2, on_record=streamed.append)
        assert [record.task_index for record in streamed] == list(range(6))
        assert streamed == result.records

    def test_interrupted_sweep_journals_every_completed_task(self, tmp_path):
        # Schedule: 0, 2, 4, 1, 3, 5.  on_record gets task 0, then raises
        # on task 1 — by then tasks 0, 2, 4 and 1 have all completed.
        spec = threshold_grid(["collusion-ring", "sybil-burst"])
        journal = tmp_path / "sweep.jnl"
        streamed = []

        def on_record(record):
            if streamed:
                raise RuntimeError("consumer died")
            streamed.append(record)

        with pytest.raises(RuntimeError, match="consumer died"):
            run_sweep(spec, journal=str(journal), on_record=on_record)
        lines = journal.read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(line)["task_index"] for line in lines] == [0, 2, 4, 1]
        assert verify_journal(str(journal)) == (4, 0)

        resumed = run_sweep(spec, journal=str(journal))
        assert resumed.n_resumed == 4
        assert _json(resumed) == _json(run_sweep(spec))
