"""Shared simulations: runs in one block that differ only in how the metrics
read the trace simulate once, and the block keeps nothing once it exits."""

import gc
import weakref

from repro import _profiling
from repro.experiments import robustness
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.scenarios.runner import run_scenario, shared_simulations

CELL = dict(scenario="collusion-ring", mechanism="beta", n_users=14, rounds=6, seed=3)


class TestBlock:
    def test_equal_simulation_keys_simulate_once(self):
        with _profiling.profiled() as timer, shared_simulations():
            first = run_scenario(**CELL)
            varied = run_scenario(detect_threshold=0.3, **CELL)
        assert timer.counts["simulate"] == 1
        assert varied.trace is first.trace
        assert varied.robustness == run_scenario(detect_threshold=0.3, **CELL).robustness

    def test_runs_outside_a_block_simulate(self):
        with _profiling.profiled() as timer:
            run_scenario(**CELL)
            run_scenario(**CELL)
        assert timer.counts["simulate"] == 2

    def test_checkpointed_runs_simulate(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        with _profiling.profiled() as timer, shared_simulations():
            run_scenario(**CELL)
            run_scenario(checkpoint_every=3, checkpoint_path=path, **CELL)
        assert timer.counts["simulate"] == 2

    def test_each_block_keeps_its_own_memo(self):
        with _profiling.profiled() as timer, shared_simulations():
            with shared_simulations():
                run_scenario(**CELL)
            run_scenario(**CELL)  # the inner block took its run with it
            run_scenario(**CELL)
        assert timer.counts["simulate"] == 2

    def test_result_is_dropped_when_the_block_exits(self):
        with shared_simulations():
            made = weakref.ref(run_scenario(**CELL))
            gc.collect()
            assert made() is not None  # the block's memo holds it
        gc.collect()
        assert made() is None


def test_inline_sweep_drops_its_simulations_when_it_returns(monkeypatch):
    made = []
    alive_at_first_record = []

    def recording_run_scenario(config, **kwargs):
        result = run_scenario(config, **kwargs)
        made.append(weakref.ref(result))
        return result

    def on_record(record):
        if not alive_at_first_record:
            gc.collect()
            alive_at_first_record.append(made[0]() is not None)

    monkeypatch.setattr(robustness, "run_scenario", recording_run_scenario)
    spec = SweepSpec(
        experiment="robustness",
        grids={
            "detect_threshold": [0.05, 0.2],
            "scenario": [CELL["scenario"]],
            "mechanism": [CELL["mechanism"]],
            "n_users": [CELL["n_users"]],
            "rounds": [CELL["rounds"]],
            "seed": [CELL["seed"]],
        },
        quick_base=False,
    )
    result = run_sweep(spec, jobs=1, on_record=on_record)
    assert result.n_ok == 2
    assert alive_at_first_record == [True]
    gc.collect()
    assert len(made) == 2
    assert all(ref() is None for ref in made)
