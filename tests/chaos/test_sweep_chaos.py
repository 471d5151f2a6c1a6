"""Sweep execution under injected faults: retries, worker loss, journal rot.

Every recovery path must leave the record bytes exactly as a fault-free
sweep would — faults may cost time, never fidelity.
"""

import pytest

from repro import faults
from repro.experiments.results import records_to_json
from repro.experiments.sweep import RetryPolicy, SweepSpec, run_sweep
from repro.faults import FaultPlan, FaultRule

SPEC = dict(
    experiment="figure1",
    grids={"n_users": [12, 16], "rounds": [6, 8]},
)

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.001)


@pytest.fixture(autouse=True)
def deactivate_plans():
    faults.activate(None)
    yield
    faults.activate(None)


def make_spec(seed=7):
    return SweepSpec(**SPEC, seed=seed)


def _json(result):
    return records_to_json(result.records, campaign=result.spec.campaign_metadata())


class TestTransientFaults:
    def test_transient_exception_retried_to_identical_records(self):
        cold = _json(run_sweep(make_spec()))
        plan = FaultPlan(
            rules=(
                FaultRule(site="sweep.task", action="raise", match=(("task_index", 1),)),
            )
        )
        with faults.active(plan):
            recovered = _json(run_sweep(make_spec(), retry=FAST_RETRY))
        assert recovered == cold

    def test_repeated_transients_within_budget_still_recover(self):
        cold = _json(run_sweep(make_spec()))
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="sweep.task", action="raise", match=(("task_index", 2),), times=2
                ),
            )
        )
        with faults.active(plan):
            recovered = _json(run_sweep(make_spec(), retry=FAST_RETRY))
        assert recovered == cold

    def test_exhausted_retries_become_a_structured_failure_record(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="sweep.task",
                    action="raise",
                    match=(("task_index", 1),),
                    times=None,
                ),
            )
        )
        with faults.active(plan):
            result = run_sweep(
                make_spec(), retry=RetryPolicy(max_attempts=2, backoff_base=0.001)
            )
        assert result.n_errors == 1
        (failed,) = result.failed_records
        assert failed.task_index == 1
        assert failed.status == "error"
        assert failed.failure["exception"] == "InjectedFault"
        assert failed.failure["retries"] == 1
        assert "InjectedFault" in failed.failure["traceback"]
        # The other tasks are untouched by the neighbour's failure.
        assert result.n_ok == 3

    def test_failure_without_retry_policy_records_zero_retries(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="sweep.task", action="raise", match=(("task_index", 0),)),
            )
        )
        with faults.active(plan):
            result = run_sweep(make_spec())
        (failed,) = result.failed_records
        assert failed.failure["retries"] == 0


class TestWorkerLoss:
    def test_sigkilled_worker_rebuilds_pool_and_matches_cold_records(
        self, tmp_path, monkeypatch
    ):
        cold = _json(run_sweep(make_spec(), jobs=2, chunksize=1))
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="sweep.task",
                    action="kill",
                    match=(("task_index", 2),),
                    latch="kill-once",
                ),
            ),
            latch_dir=str(tmp_path),
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        survived = _json(run_sweep(make_spec(), jobs=2, chunksize=1))
        assert survived == cold
        # The latch armed exactly when the worker died, proving the kill
        # actually struck (and kept the rebuilt worker alive).
        assert (tmp_path / "kill-once").exists()

    def test_sigkilled_worker_with_journal_still_resumable(self, tmp_path, monkeypatch):
        cold = _json(run_sweep(make_spec()))
        journal = str(tmp_path / "sweep.jnl")
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="sweep.task",
                    action="kill",
                    match=(("task_index", 1),),
                    latch="kill-once",
                ),
            ),
            latch_dir=str(tmp_path),
        )
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        first = run_sweep(make_spec(), jobs=2, chunksize=1, journal=journal)
        assert _json(first) == cold
        monkeypatch.delenv(faults.ENV_VAR)
        second = run_sweep(make_spec(), jobs=2, chunksize=1, journal=journal)
        assert second.n_resumed == 4
        assert _json(second) == cold


class TestJournalFaults:
    def test_corrupted_journal_line_heals_on_rerun(self, tmp_path):
        cold = _json(run_sweep(make_spec()))
        journal = str(tmp_path / "sweep.jnl")
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="journal.record", action="corrupt", match=(("task_index", 2),)
                ),
            )
        )
        with faults.active(plan):
            damaged = run_sweep(make_spec(), journal=journal)
        assert _json(damaged) == cold  # in-memory records were never touched

        executed = []
        healed = run_sweep(make_spec(), journal=journal, on_record=executed.append)
        assert [record.task_index for record in executed] == [2]
        assert healed.n_resumed == 3
        assert _json(healed) == cold
