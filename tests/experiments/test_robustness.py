"""Tests for the registered robustness experiment and its sweep wiring."""

import math

from repro.experiments.results import records_to_json
from repro.experiments.runner import (
    get_experiment,
    run_experiment,
    run_experiment_structured,
)
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.experiments import robustness

QUICK = dict(
    scenarios=("collusion-ring",),
    mechanisms=("none", "average"),
    n_users=16,
    rounds=6,
    seed=4,
)


def test_registered_with_quick_kwargs():
    entry = get_experiment("robustness")
    assert entry.experiment_ids == ("E-X1",)
    assert entry.accepts("seed")
    assert entry.accepts("scenario")


def test_run_covers_the_matrix():
    result = robustness.run(**QUICK)
    assert len(result.outcomes) == 2  # 1 scenario x 2 mechanisms
    assert {o.mechanism for o in result.outcomes} == {"none", "average"}
    assert all(o.scenario == "collusion-ring" for o in result.outcomes)


def test_singular_scenario_and_mechanism_override_lists():
    result = robustness.run(
        scenarios=("collusion-ring", "slander"),
        scenario="slander",
        mechanisms=("none", "average"),
        mechanism="average",
        n_users=16,
        rounds=6,
        seed=4,
    )
    assert len(result.outcomes) == 1
    assert result.outcomes[0].scenario == "slander"
    assert result.outcomes[0].mechanism == "average"


def test_default_run_uses_whole_catalog():
    from repro.scenarios.catalog import scenario_names

    result = robustness.run(mechanisms=("none",), n_users=12, rounds=4, seed=1)
    assert {o.scenario for o in result.outcomes} == set(scenario_names())


def test_summarize_is_flat_finite_scalars():
    result = robustness.run(**QUICK)
    metrics = robustness.summarize(result)
    assert metrics["n_outcomes"] == 2
    assert "collusion-ring.average.separation_attack" in metrics
    assert "collusion-ring.average.time_to_detect" in metrics
    assert "resistance.average" in metrics
    # The scoreless baseline is excluded from the resistance ranking: its
    # separation is identically zero, which would out-rank real mechanisms.
    assert "resistance.none" not in metrics
    for key, value in metrics.items():
        assert isinstance(value, (bool, int, float, str)), key
        if isinstance(value, float):
            assert math.isfinite(value), key


def test_resistance_excludes_baseline_row():
    result = robustness.run(
        scenarios=("baseline", "collusion-ring"),
        mechanisms=("average",),
        n_users=16,
        rounds=6,
        seed=4,
    )
    resistance = result.resistance_by_mechanism()
    attack_row = [o for o in result.outcomes if o.scenario == "collusion-ring"]
    assert resistance["average"] == attack_row[0].robustness.attack_separation


def test_report_renders_tables():
    result = robustness.run(**QUICK)
    text = robustness.report(result)
    assert "E-X1" in text
    assert "collusion-ring" in text
    assert "attack resistance" in text


def test_cli_quick_run():
    text = run_experiment("robustness", quick=True, rounds=6, n_users=16)
    assert "scenario" in text and "mechanism" in text


def test_structured_run_accepts_seed():
    metrics = run_experiment_structured(
        "robustness", quick=True, seed=11, rounds=6, n_users=16
    )
    assert metrics["n_outcomes"] == 4  # quick preset: 2 scenarios x 2 mechanisms


def test_sweep_records_identical_across_jobs():
    spec = SweepSpec(
        experiment="robustness",
        grids={
            "scenario": ["collusion-ring", "whitewash-wave"],
            "n_users": [16],
            "rounds": [6],
        },
        seed=7,
    )
    serial = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert all(record.ok for record in serial.records)
    serial_json = records_to_json(serial.records, campaign=serial.spec.campaign_metadata())
    parallel_json = records_to_json(parallel.records, campaign=parallel.spec.campaign_metadata())
    assert serial_json == parallel_json
