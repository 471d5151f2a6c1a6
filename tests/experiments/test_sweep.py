"""Tests for the sweep engine and the structured-results layer."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import scenario as scenario_module
from repro.experiments.results import (
    ExperimentRecord,
    RecordValueError,
    campaign_from_json,
    records_from_json,
    records_to_csv,
    records_to_json,
)
from repro.experiments.runner import EXPERIMENTS, run_experiment_structured
from repro.experiments.sweep import (
    ParamRange,
    SweepSpec,
    derive_task_seed,
    expand_tasks,
    parse_grid_option,
    parse_range_option,
    parse_scalar,
    run_sweep,
    spec_from_options,
)
from repro.reputation import REPUTATION_FACTORIES
from tests.oracles import reputation as reputation_oracle
from tests.oracles.simulation import OracleSimulator

#: Registry names whose mechanism has a loop oracle.
ORACLE_MECHANISMS = {
    "average": reputation_oracle.OracleAverage,
    "beta": reputation_oracle.OracleBeta,
    "eigentrust": reputation_oracle.OracleEigenTrust,
    "powertrust": reputation_oracle.OraclePowerTrust,
}

ANALYTIC_SPEC = dict(
    experiment="figure2-left",
    grids={"threshold": [0.4, 0.6], "mechanism": ["eigentrust", "beta"]},
)


class TestRecords:
    def make_record(self, **overrides):
        payload = dict(
            experiment="figure2-left",
            task_index=0,
            params={"threshold": 0.5},
            seed=123,
            status="ok",
            metrics={"best_trust": 0.7, "best_in_area_a": True},
        )
        payload.update(overrides)
        return ExperimentRecord(**payload)

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            self.make_record(status="maybe")

    def test_non_scalar_metric_rejected(self):
        with pytest.raises(RecordValueError):
            self.make_record(metrics={"series": [1, 2, 3]})

    def test_non_finite_metric_rejected(self):
        with pytest.raises(RecordValueError):
            self.make_record(metrics={"trust": float("nan")})
        with pytest.raises(RecordValueError):
            self.make_record(params={"threshold": float("inf")})

    def test_json_round_trip(self):
        records = [self.make_record(task_index=i) for i in range(3)]
        text = records_to_json(records, campaign={"experiment": "figure2-left"})
        parsed = records_from_json(text)
        assert parsed == records
        assert campaign_from_json(text) == {"experiment": "figure2-left"}

    def test_json_is_deterministic_and_sorted_by_index(self):
        records = [self.make_record(task_index=i) for i in (2, 0, 1)]
        text = records_to_json(records)
        assert text == records_to_json(list(reversed(records)))
        indices = [entry["task_index"] for entry in json.loads(text)["records"]]
        assert indices == [0, 1, 2]

    def test_csv_has_param_and_metric_columns(self):
        csv_text = records_to_csv([self.make_record()])
        header, row = csv_text.splitlines()[:2]
        assert "param_threshold" in header
        assert "metric_best_trust" in header
        assert "figure2-left" in row


class TestExpansion:
    def test_grid_is_cartesian_product_in_declaration_order(self):
        tasks = expand_tasks(SweepSpec(**ANALYTIC_SPEC))
        assert len(tasks) == 4
        assert tasks[0].params == {"threshold": 0.4, "mechanism": "eigentrust"}
        assert tasks[1].params == {"threshold": 0.4, "mechanism": "beta"}
        assert [task.index for task in tasks] == [0, 1, 2, 3]

    def test_task_seeds_are_deterministic_and_distinct(self):
        first = expand_tasks(SweepSpec(**ANALYTIC_SPEC, seed=9))
        second = expand_tasks(SweepSpec(**ANALYTIC_SPEC, seed=9))
        assert [task.seed for task in first] == [task.seed for task in second]
        assert len({task.seed for task in first}) == len(first)
        other_campaign = expand_tasks(SweepSpec(**ANALYTIC_SPEC, seed=10))
        assert [task.seed for task in first] != [task.seed for task in other_campaign]

    def test_derive_task_seed_ignores_hash_randomization(self):
        seed = derive_task_seed(7, "figure1", 0, {"n_users": 25, "rounds": 10})
        # SHA-256-derived constant: stable across processes and Python runs.
        assert seed == derive_task_seed(7, "figure1", 0, {"rounds": 10, "n_users": 25})
        assert seed != derive_task_seed(7, "figure1", 1, {"n_users": 25, "rounds": 10})

    def test_random_sampler_is_seed_deterministic(self):
        spec = lambda s: SweepSpec(  # noqa: E731
            experiment="figure2-left",
            grids={"mechanism": ["eigentrust", "beta"]},
            ranges={"threshold": ParamRange(0.2, 0.8)},
            sampler="random",
            n_samples=6,
            seed=s,
        )
        assert [t.params for t in expand_tasks(spec(4))] == [
            t.params for t in expand_tasks(spec(4))
        ]
        assert [t.params for t in expand_tasks(spec(4))] != [
            t.params for t in expand_tasks(spec(5))
        ]

    def test_latin_sampler_visits_every_stratum_once(self):
        n = 8
        spec = SweepSpec(
            experiment="figure2-left",
            ranges={"threshold": ParamRange(0.0, 1.0)},
            sampler="latin",
            n_samples=n,
            seed=1,
        )
        values = [task.params["threshold"] for task in expand_tasks(spec)]
        strata = sorted(int(value * n) for value in values)
        assert strata == list(range(n))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SweepSpec(experiment="nope", grids={"threshold": [0.5]})
        with pytest.raises(ConfigurationError):
            SweepSpec(experiment="figure2-left", grids={"not_a_param": [1]})
        with pytest.raises(ConfigurationError):
            SweepSpec(
                experiment="figure2-left",
                ranges={"threshold": ParamRange(0.0, 1.0)},
                sampler="grid",
            )
        with pytest.raises(ConfigurationError):
            SweepSpec(
                experiment="figure2-left",
                ranges={"threshold": ParamRange(0.0, 1.0)},
                sampler="random",
                n_samples=0,
            )
        with pytest.raises(ConfigurationError):
            SweepSpec(experiment="figure2-left")
        with pytest.raises(ConfigurationError):
            # n_samples is meaningless under the full cartesian grid.
            SweepSpec(
                experiment="figure2-left",
                grids={"threshold": [0.4, 0.6]},
                n_samples=5,
            )
        with pytest.raises(ConfigurationError):
            # A 2-sample latin design cannot cover a 3-value grid axis.
            SweepSpec(
                experiment="figure2-left",
                grids={"mechanism": ["eigentrust", "beta", "average"]},
                sampler="latin",
                n_samples=2,
            )


class TestRunSweep:
    def test_serial_and_parallel_records_are_byte_identical(self):
        spec = SweepSpec(**ANALYTIC_SPEC, seed=7)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert serial.n_ok == parallel.n_ok == 4
        campaign = spec.campaign_metadata()
        assert records_to_json(serial.records, campaign=campaign) == records_to_json(
            parallel.records, campaign=campaign
        )

    def test_failing_task_becomes_error_record(self):
        # threshold 1.5 violates figure2-left's [0, 1] validation.
        spec = SweepSpec(
            experiment="figure2-left", grids={"threshold": [0.5, 1.5]}, seed=0
        )
        result = run_sweep(spec, jobs=1)
        assert result.n_ok == 1
        assert result.n_errors == 1
        failed = result.records[1]
        assert failed.status == "error"
        assert "threshold" in failed.error

    def test_swept_seed_param_wins_over_derived_seed(self):
        # figure2-right accepts a seed; quick base keeps it analytic-fast.
        spec = SweepSpec(
            experiment="figure2-right", grids={"seed": [1, 2]}, seed=99
        )
        result = run_sweep(spec, jobs=1)
        assert [record.params["seed"] for record in result.records] == [1, 2]
        # The record reports the seed actually used — the swept one.
        assert [record.seed for record in result.records] == [1, 2]

    def test_derived_seed_recorded_when_not_swept(self):
        spec = SweepSpec(experiment="figure2-right", grids={"simulate": [False]}, seed=5)
        result = run_sweep(spec, jobs=1)
        [record] = result.records
        assert record.seed == expand_tasks(spec)[0].seed

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_sweep(SweepSpec(**ANALYTIC_SPEC), jobs=0)

    def test_write_json_and_csv(self, tmp_path):
        result = run_sweep(SweepSpec(**ANALYTIC_SPEC, seed=3), jobs=1)
        json_path = tmp_path / "records.json"
        csv_path = tmp_path / "records.csv"
        result.write_json(str(json_path))
        result.write_csv(str(csv_path))
        payload = json.loads(json_path.read_text())
        assert payload["campaign"]["experiment"] == "figure2-left"
        assert "jobs" not in payload["campaign"]  # determinism contract
        assert len(payload["records"]) == 4
        assert csv_path.read_text().startswith("experiment,")


class TestOracleDeterminism:
    """A simulated campaign writes the same bytes whether its mechanisms
    and round draws go through the kernels or their loop oracles."""

    SPEC = dict(experiment="reputation", grids={"n_users": [18, 24], "rounds": [6]}, seed=11)

    def _records_json(self, tmp_path, tag):
        path = tmp_path / f"records-{tag}.json"
        run_sweep(SweepSpec(**self.SPEC), jobs=1).write_json(str(path))
        return path.read_bytes()

    def test_records_byte_identical_to_oracle_run(self, tmp_path, monkeypatch):
        kernel_bytes = self._records_json(tmp_path, "kernel")
        for name, oracle_cls in ORACLE_MECHANISMS.items():
            monkeypatch.setitem(REPUTATION_FACTORIES, name, oracle_cls)
        monkeypatch.setattr(scenario_module, "InteractionSimulator", OracleSimulator)
        oracle_bytes = self._records_json(tmp_path, "oracle")
        assert kernel_bytes == oracle_bytes
        records = json.loads(kernel_bytes)["records"]
        assert len(records) == 2
        assert all(record["status"] == "ok" for record in records)


class TestStructuredRunner:
    def test_every_entry_has_a_summarize_adapter(self):
        for entry in EXPERIMENTS.values():
            assert callable(entry.summarize)

    def test_structured_run_returns_flat_scalars(self):
        metrics = run_experiment_structured("figure2-left", quick=True)
        # quick preset: 5 sharing levels x the 5 default strictness levels
        assert metrics["n_points"] == 25
        for value in metrics.values():
            assert isinstance(value, (bool, int, float, str, type(None)))

    def test_metric_keys_stay_distinct_for_close_parameter_values(self):
        metrics = run_experiment_structured("figure2-right", quick=True, levels=(0.111, 0.114))
        assert "analytic[0.111].trust" in metrics
        assert "analytic[0.114].trust" in metrics

    def test_seed_forwarded_only_when_accepted(self):
        # figure2-left takes no seed: passing one must not blow up.
        with_seed = run_experiment_structured("figure2-left", quick=True, seed=99)
        without = run_experiment_structured("figure2-left", quick=True)
        assert with_seed == without


class TestOptionParsing:
    def test_parse_scalar(self):
        assert parse_scalar("25") == 25
        assert parse_scalar("0.5") == 0.5
        assert parse_scalar("true") is True
        assert parse_scalar("no") is False
        assert parse_scalar("eigentrust") == "eigentrust"
        # Non-finite floats would make the JSON output unparseable.
        assert parse_scalar("nan") == "nan"
        assert parse_scalar("inf") == "inf"

    def test_parse_grid_option(self):
        key, values = parse_grid_option("n_users=25,50")
        assert key == "n_users"
        assert values == [25, 50]
        with pytest.raises(ConfigurationError):
            parse_grid_option("n_users")
        with pytest.raises(ConfigurationError):
            parse_grid_option("=1,2")

    def test_parse_range_option(self):
        key, bounds = parse_range_option("threshold=0.2:0.8")
        assert key == "threshold"
        assert bounds == ParamRange(0.2, 0.8)
        with pytest.raises(ConfigurationError):
            parse_range_option("threshold=0.2")
        with pytest.raises(ConfigurationError):
            parse_range_option("threshold=a:b")

    def test_spec_from_options(self):
        spec = spec_from_options(
            "figure2-left",
            grid_options=["threshold=0.4,0.6", "mechanism=eigentrust,beta"],
            seed=7,
        )
        assert spec.grids == {
            "threshold": [0.4, 0.6],
            "mechanism": ["eigentrust", "beta"],
        }
        assert spec.seed == 7

    def test_repeated_grid_key_extends_the_value_list(self):
        spec = spec_from_options(
            "figure2-left",
            grid_options=["threshold=0.4", "threshold=0.6"],
        )
        assert spec.grids == {"threshold": [0.4, 0.6]}

    def test_repeated_range_key_rejected(self):
        with pytest.raises(ConfigurationError):
            spec_from_options(
                "figure2-left",
                range_options=["threshold=0.2:0.4", "threshold=0.5:0.7"],
                sampler="random",
                n_samples=3,
            )

    def test_non_scalar_grid_value_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(
                experiment="figure2-left",
                grids={"sharing_levels": [[0.1, 0.2]]},
            )

    def test_record_dicts_are_decoupled_from_caller(self):
        params = {"threshold": 0.5}
        record = ExperimentRecord(
            experiment="figure2-left",
            task_index=0,
            params=params,
            seed=None,
            status="ok",
        )
        params["threshold"] = 0.9
        assert record.params["threshold"] == 0.5
